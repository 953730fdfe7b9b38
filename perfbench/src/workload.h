// The two ALARM workloads, the seeded inputs they push, and one session
// of a workload driven through the public Session API only.

#ifndef DSGM_PERFBENCH_WORKLOAD_H_
#define DSGM_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dsgm/dsgm.h"
#include "reference.h"
#include "spans.h"

namespace perfbench {

struct Workload {
  const char* name;
  dsgm::Backend backend;
  dsgm::TrackingStrategy strategy;
  int sites;
  /// Events one session pushes (the pool below, cycled).
  int64_t events;
  /// Seconds one session takes on the reference host (README); a run does
  /// --seconds / session_s sessions.
  double session_s;
  /// > 0: a query thread runs open-loop at this rate beside the producer.
  double query_hz;
  /// > 0 (and no query thread): the producer itself queries after every
  /// this many events.
  int64_t query_every;
};

constexpr double kEpsilon = 0.1;
/// Held-out instances each query classifies.
constexpr int kQueryBatch = 32;
/// Set-ups timed for setup_s.
constexpr int kSetups = 101;

const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();
dsgm::TrackerConfig TrackerFor(const Workload& workload, uint64_t seed);

/// The inputs of one run, all drawn from --seed: a pool of instances the
/// stream cycles through (packed one byte per value), and held-out
/// instances with the variable each classification query hides.
struct Inputs {
  int num_vars = 0;
  int64_t pool_size = 0;
  std::vector<uint8_t> pool;
  HeldOut held_out;

  void Fill(int64_t event, dsgm::Instance* x) const {
    const uint8_t* row =
        &pool[static_cast<size_t>((event % pool_size) * num_vars)];
    for (int v = 0; v < num_vars; ++v) (*x)[static_cast<size_t>(v)] = row[v];
  }
};

Inputs MakeInputs(const dsgm::BayesianNetwork& network, uint64_t seed,
                  int64_t pool_size, int held_out);

/// Exact counts of the first `events` events of the stream.
Reference ReferenceFor(const dsgm::BayesianNetwork& network, const Inputs& inputs,
                       int64_t events);

/// Attempted and failed calls of each public operation.
struct OpCount {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};
struct Ops {
  OpCount build, push, snapshot, predict, finish;
  int64_t events_pushed = 0;
  int64_t events_processed = 0;

  int64_t attempted() const {
    return build.attempted + push.attempted + snapshot.attempted +
           predict.attempted + finish.attempted;
  }
  int64_t failed() const {
    return build.failed + push.failed + snapshot.failed + predict.failed +
           finish.failed;
  }
};

/// What one session measured.
struct SessionResult {
  bool finished = false;
  double window_s = 0.0;  // first Push to Finish returning
  double cpu_s = 0.0;     // process CPU over the same window
  double producer_cpu_s = 0.0;  // the pushing thread's share of it
  std::vector<double> query_us;
  std::vector<double> lateness_us;  // open-loop generator lateness
  dsgm::MetricsSnapshot metrics_before;
  dsgm::RunReport report;
};

/// Spans of the traced runs: one log per benchmark thread.
struct Tracing {
  SpanLog producer{1};
  SpanLog query{2};
};

/// Times kSetups set-ups (SessionBuilder + Build() until the
/// session is ready), each after a 25 ms pause, tearing each down again.
/// Returns the seconds of each.
std::vector<double> MeasureSetups(const dsgm::BayesianNetwork& network,
                                  const Workload& workload, uint64_t seed,
                                  Ops* ops, SpanLog* log);

SessionResult RunSession(const dsgm::BayesianNetwork& network,
                         const Workload& workload, const Inputs& inputs,
                         uint64_t seed, Ops* ops, Tracing* tracing);

}  // namespace perfbench

#endif  // DSGM_PERFBENCH_WORKLOAD_H_
