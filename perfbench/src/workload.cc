#include "workload.h"

#include <time.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

namespace perfbench {

using dsgm::Backend;
using dsgm::BayesianNetwork;
using dsgm::Instance;
using dsgm::TrackingStrategy;

namespace {

// name, backend, strategy, sites, events/session, seconds/session, query
// Hz, query every.
const Workload kWorkloads[] = {
    {"threads_alarm_query", Backend::kThreads, TrackingStrategy::kNonUniform, 4,
     4 << 20, 2.0, 500.0, 0},
    {"tcp_alarm_exact", Backend::kLocalTcp, TrackingStrategy::kExactMle, 4,
     1 << 20, 3.2, 0.0, 1 << 15},
};

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

dsgm::SessionBuilder BuilderFor(const BayesianNetwork& network,
                                const Workload& workload, uint64_t seed) {
  dsgm::SessionBuilder builder(network);
  builder.WithBackend(workload.backend).WithTracker(TrackerFor(workload, seed));
  return builder;
}

/// One classification query: a Snapshot() plus Predict over the first
/// kQueryBatch held-out instances. Returns its duration in microseconds.
double Query(dsgm::Session* session, const HeldOut& held_out, OpCount* snapshots,
             OpCount* predicts, SpanLog* log) {
  const int64_t start = MonoNanos();
  ScopedSpan query_span(log, "query");
  dsgm::StatusOr<dsgm::ModelView> view = [&] {
    ScopedSpan span(log, "api.snapshot");
    return session->Snapshot();
  }();
  snapshots->Add(view.ok());
  if (view.ok()) {
    for (int i = 0; i < kQueryBatch; ++i) {
      const int target = held_out.targets[static_cast<size_t>(i)];
      const Instance& x = held_out.instances[static_cast<size_t>(i)];
      ScopedSpan span(log, "api.predict");
      const int y = dsgm::Predict(*view, target, x);
      predicts->Add(y >= 0 && y < view->network().cardinality(target));
    }
  }
  return static_cast<double>(MonoNanos() - start) / 1e3;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& workload : kWorkloads) names.emplace_back(workload.name);
  return names;
}

dsgm::TrackerConfig TrackerFor(const Workload& workload, uint64_t seed) {
  dsgm::TrackerConfig tracker;
  tracker.strategy = workload.strategy;
  tracker.epsilon = kEpsilon;
  tracker.num_sites = workload.sites;
  tracker.seed = seed * 0x9e3779b97f4a7c15ULL + 1;
  return tracker;
}

Inputs MakeInputs(const BayesianNetwork& network, uint64_t seed, int64_t pool_size,
                  int held_out) {
  // Ancestral sampling from the network's CPDs with the benchmark's own
  // generator, so the program's sampler is not part of what is measured.
  std::mt19937_64 rng(seed ^ 0x5eed0fa1a2b3c4d5ULL);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const int n = network.num_variables();
  Instance x(static_cast<size_t>(n));
  auto sample = [&] {
    for (int v : network.topological_order()) {
      const int64_t row = network.ParentIndexOf(v, x);
      const int card = network.cardinality(v);
      double u = unit(rng);
      int value = 0;
      while (value < card - 1 && (u -= network.cpd(v).prob(value, row)) > 0.0) ++value;
      x[static_cast<size_t>(v)] = value;
    }
  };

  Inputs inputs;
  inputs.num_vars = n;
  inputs.pool_size = pool_size;
  inputs.pool.resize(static_cast<size_t>(pool_size * n));
  for (int64_t i = 0; i < pool_size; ++i) {
    sample();
    for (int v = 0; v < n; ++v) {
      inputs.pool[static_cast<size_t>(i * n + v)] = static_cast<uint8_t>(x[static_cast<size_t>(v)]);
    }
  }
  std::uniform_int_distribution<int> pick(0, n - 1);
  for (int i = 0; i < held_out; ++i) {
    sample();
    inputs.held_out.instances.push_back(x);
    inputs.held_out.targets.push_back(pick(rng));
  }
  return inputs;
}

Reference ReferenceFor(const BayesianNetwork& network, const Inputs& inputs,
                       int64_t events) {
  // Event e is pool[e % pool_size], so pool entry i occurs
  // events / pool_size times, plus once more if i < events % pool_size.
  Reference reference(network);
  Instance x(static_cast<size_t>(inputs.num_vars));
  const int64_t laps = events / inputs.pool_size;
  const int64_t rest = events % inputs.pool_size;
  for (int64_t i = 0; i < inputs.pool_size; ++i) {
    const uint64_t weight = static_cast<uint64_t>(laps + (i < rest ? 1 : 0));
    if (weight == 0) continue;
    inputs.Fill(i, &x);
    reference.Observe(x, weight);
  }
  reference.Finalize();
  return reference;
}

std::vector<double> MeasureSetups(const BayesianNetwork& network,
                                  const Workload& workload, uint64_t seed,
                                  Ops* ops, SpanLog* log) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    // Each set-up starts after a pause, cold, as a user's one Build() does.
    // Back to back, set-ups run from warm caches and their time depends on
    // which of a few speeds the process happens to get on a shared host.
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    const int64_t start = MonoNanos();
    dsgm::StatusOr<std::unique_ptr<dsgm::Session>> session = [&] {
      ScopedSpan span(log, "api.build");
      return BuilderFor(network, workload, seed).Build();
    }();
    seconds.push_back(static_cast<double>(MonoNanos() - start) * 1e-9);
    ops->build.Add(session.ok());
    // Teardown (outside the timed part): the destructor joins whatever the
    // backend started.
  }
  return seconds;
}

SessionResult RunSession(const BayesianNetwork& network, const Workload& workload,
                         const Inputs& inputs, uint64_t seed, Ops* ops,
                         Tracing* tracing) {
  SessionResult result;
  SpanLog* log = tracing ? &tracing->producer : nullptr;
  ScopedSpan session_span(log, "session");
  dsgm::StatusOr<std::unique_ptr<dsgm::Session>> built = [&] {
    ScopedSpan span(log, "api.build");
    return BuilderFor(network, workload, seed).Build();
  }();
  ops->build.Add(built.ok());
  if (!built.ok()) return result;
  dsgm::Session* session = built->get();
  result.metrics_before = session->Metrics();

  // The open-loop query thread: due times on a fixed grid; a query's
  // latency runs from its start, and how late it started is kept apart.
  std::atomic<bool> stop{false};
  OpCount thread_snapshots, thread_predicts;
  std::thread query_thread;
  if (workload.query_hz > 0.0) {
    query_thread = std::thread([&] {
      const auto period = std::chrono::nanoseconds(
          static_cast<int64_t>(1e9 / workload.query_hz));
      auto due = std::chrono::steady_clock::now() + period;
      SpanLog* qlog = tracing ? &tracing->query : nullptr;
      while (!stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_until(due);
        result.lateness_us.push_back(
            std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - due)
                .count());
        result.query_us.push_back(Query(session, inputs.held_out, &thread_snapshots,
                                        &thread_predicts, qlog));
        due += period;
      }
    });
  }

  const double cpu_start = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  const double producer_cpu_start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  const int64_t start = MonoNanos();
  Instance x(static_cast<size_t>(inputs.num_vars));
  constexpr int64_t kPushBlock = 4096;
  for (int64_t block = 0; block < workload.events; block += kPushBlock) {
    const int64_t end = std::min(workload.events, block + kPushBlock);
    {
      ScopedSpan span(log, "api.push", end - block);
      for (int64_t e = block; e < end; ++e) {
        inputs.Fill(e, &x);
        ops->push.Add(session->Push(x).ok());
      }
    }
    ops->events_pushed += end - block;
    if (workload.query_every > 0 && end % workload.query_every == 0) {
      result.query_us.push_back(
          Query(session, inputs.held_out, &ops->snapshot, &ops->predict, log));
    }
  }
  result.producer_cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - producer_cpu_start;
  stop.store(true);
  if (query_thread.joinable()) query_thread.join();
  dsgm::StatusOr<dsgm::RunReport> report = [&] {
    ScopedSpan span(log, "api.finish");
    return session->Finish();
  }();
  result.window_s = static_cast<double>(MonoNanos() - start) * 1e-9;
  result.cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu_start;

  ops->snapshot.attempted += thread_snapshots.attempted;
  ops->snapshot.failed += thread_snapshots.failed;
  ops->predict.attempted += thread_predicts.attempted;
  ops->predict.failed += thread_predicts.failed;
  ops->finish.Add(report.ok());
  if (report.ok()) {
    result.finished = true;
    result.report = std::move(*report);
    ops->events_processed += result.report.events_processed;
  }
  return result;
}

}  // namespace perfbench
