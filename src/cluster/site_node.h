// Site-side logic of the threaded cluster.

#ifndef DSGM_CLUSTER_SITE_NODE_H_
#define DSGM_CLUSTER_SITE_NODE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "bayes/network.h"
#include "core/counter_layout.h"
#include "net/wire.h"
#include "common/rng.h"
#include "net/channel.h"

namespace dsgm {

/// One remote site: consumes its event stream, keeps cumulative local
/// counts for every counter, makes the Bernoulli reporting decisions, and
/// answers round advances with exact sync replies.
///
/// Reports leave in kReports bundles. By default every event that reports
/// sends its own bundle: with rounds, a report's arrival time decides when
/// the coordinator advances a counter, so reports must not wait. An exact
/// run has no rounds, and `exact_mode` coalesces the reports of a whole
/// EventBatch into one bundle, split every kMaxBundleReports reports. The
/// counts and reports are the same either way; only their framing differs.
///
/// Counter ids use the MleTracker layout (joint counters first, then parent
/// counters); the structural metadata needed to map an instance to counter
/// ids is precomputed at construction.
///
/// Concurrency contract: a SiteNode is single-threaded by construction —
/// every member is touched only by the thread running Run() (cross-thread
/// traffic flows through the Channels, which carry their own locks), so
/// there is no mutex and nothing to annotate. The one exception is the
/// stats block below: relaxed atomics written only by the Run() thread and
/// readable live by an observer thread (the heartbeat sender piggybacking
/// kStatsReport frames, or an in-process health board). local_counts() is
/// still for AFTER the thread joined.
class SiteNode {
 public:
  SiteNode(int site_id, const BayesianNetwork& network, uint64_t seed,
           Channel<EventBatch>* events, Channel<RoundAdvance>* commands,
           Channel<UpdateBundle>* to_coordinator, bool exact_mode = false);

  /// Exact mode flushes a bundle once it holds this many reports (64 KiB),
  /// bounding the bundle a long EventBatch can build.
  static constexpr size_t kMaxBundleReports = 4096;

  /// Thread body: runs until the event queue closes and drains, then keeps
  /// serving round advances until the command queue closes.
  void Run();

  int64_t events_processed() const {
    return events_processed_.load(std::memory_order_relaxed);
  }

  /// Cumulative protocol stats, safe to sample while Run() is live. The
  /// fields are sampled independently (no cross-field snapshot), which is
  /// fine for monitoring: each is monotone.
  SiteStatsReport StatsReport() const {
    SiteStatsReport report;
    report.site = site_id_;
    report.events_processed = events_processed_.load(std::memory_order_relaxed);
    report.updates_sent = updates_sent_.load(std::memory_order_relaxed);
    report.syncs_sent = syncs_sent_.load(std::memory_order_relaxed);
    report.rounds_seen = rounds_seen_.load(std::memory_order_relaxed);
    return report;
  }

  /// Exact cumulative local counts; read only after the thread has joined
  /// (used by the runner to validate coordinator estimates).
  const std::vector<uint32_t>& local_counts() const { return local_counts_; }

 private:
  /// Pop-batch bounds of the two consume loops (also the reserve sizes of
  /// the reused buffers below).
  static constexpr size_t kEventPopBatch = 4;
  static constexpr size_t kCommandPopBatch = 256;

  void ProcessEvent(const int32_t* values);
  /// Sends outbox_ as one kReports bundle (if it holds any) and empties it.
  void FlushReports();
  void DrainCommands(bool block_until_closed);

  int site_id_;
  const BayesianNetwork* network_;
  Rng rng_;
  Channel<EventBatch>* events_;
  Channel<RoundAdvance>* commands_;
  Channel<UpdateBundle>* to_coordinator_;
  const bool exact_mode_;

  // Structure metadata (the canonical MleTracker counter flattening).
  CounterLayout layout_;

  // Per-counter site state.
  std::vector<uint32_t> local_counts_;
  std::vector<float> probs_;

  std::vector<CounterReport> outbox_;
  std::vector<RoundAdvance> command_buffer_;

  // Live stats: single writer (the Run() thread), any reader, relaxed.
  std::atomic<int64_t> events_processed_{0};
  std::atomic<uint64_t> updates_sent_{0};  // CounterReports, not bundles.
  std::atomic<uint64_t> syncs_sent_{0};
  std::atomic<uint64_t> rounds_seen_{0};  // Highest round id answered.
};

}  // namespace dsgm

#endif  // DSGM_CLUSTER_SITE_NODE_H_
