// Internal plumbing shared by the Session backends (not installed as part
// of the public surface; include "dsgm/dsgm.h" instead).

#ifndef DSGM_API_BACKENDS_H_
#define DSGM_API_BACKENDS_H_

#include <memory>
#include <thread>
#include <vector>

#include "cluster/cluster_runner.h"
#include "cluster/coordinator_node.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "core/counter_layout.h"
#include "dsgm/session.h"
#include "net/channel.h"
#include "net/wire.h"

namespace dsgm {
namespace internal {

/// The seed schedule every backend derives from the tracker seed — the
/// same burn order the legacy free-function drivers used (k site seeds,
/// then the ground-truth sampler seed, then the router seed), so identical
/// configs produce identical event streams on every backend.
struct SeedSchedule {
  std::vector<uint64_t> site_seeds;
  uint64_t sampler_seed = 0;
  uint64_t router_seed = 0;
};

SeedSchedule DeriveSeedSchedule(const TrackerConfig& tracker);

/// Converts the cluster-layer result shape into the unified report
/// (everything except the model snapshot, which only sessions can take).
RunReport ReportFromClusterResult(const ClusterResult& result, Backend backend);

/// Machinery shared by the kThreads and kLocalTcp backends: a
/// CoordinatorNode running on its own thread, per-shard per-site event
/// lanes, and mid-run snapshots via CoordinatorNode's double-buffered
/// SnapshotState (which never blocks the protocol loop).
class ClusterSessionBase : public Session {
 public:
  StatusOr<ModelView> Snapshot() override;

  /// Registry snapshot plus this session's per-site health table.
  MetricsSnapshot Metrics() const override;

 protected:
  ClusterSessionBase(Backend backend, const BayesianNetwork& network,
                     const SessionOptions& options, const SeedSchedule& seeds);

  /// Backend hook run before a health-table snapshot: kThreads pushes its
  /// in-process SiteNodes' live stats into the board here; kLocalTcp's
  /// board is fed by the reactor I/O thread and needs no refresh. Called
  /// from Metrics()/dump threads — must be thread-safe.
  virtual void RefreshSiteHealth() const {}

  /// Pushes a full routed batch down the shard's lane for `site`, binding
  /// the lane on first use via ShardLane. Fails if the lane has closed
  /// underneath the session; a recorded run failure (see below) takes
  /// precedence as the error.
  Status DeliverBatch(internal::IngestShard& shard, int site,
                      EventBatch&& batch) override;

  /// The delivery channel a (new) shard should use for `site`. The default
  /// hands out the transport's event channel, whose Push is thread-safe on
  /// every socket transport (mutex/outbox-serialized); the loopback
  /// kThreads backend overrides this with a private SPSC hub lane per
  /// shard. Called from producer threads — must be thread-safe.
  virtual Channel<EventBatch>* ShardLane(int site) {
    return event_channels_[static_cast<size_t>(site)];
  }

  /// Builds the coordinator over the given plumbing and starts its thread.
  /// Called once from the derived constructor/Init after the transport is
  /// wired.
  void StartCoordinator(Channel<UpdateBundle>* updates,
                        std::vector<Channel<RoundAdvance>*> commands);

  void CloseEventChannels();
  void JoinCoordinator();

  /// Records the first run-level failure — e.g. a site declared dead by
  /// the transport's liveness protocol (the FailRun policy). Thread-safe
  /// (transport I/O threads call it); later failures are ignored. Once
  /// recorded, Push/Snapshot/Finish report this status instead of the
  /// secondary symptom (a closed lane or queue).
  void RecordRunFailure(const Status& status) DSGM_EXCLUDES(failure_mu_);
  Status run_failure() const DSGM_EXCLUDES(failure_mu_);
  /// `fallback` unless a run failure was recorded, which then explains WHY
  /// the fallback symptom happened and is returned instead.
  Status RunFailureOr(Status fallback) const DSGM_EXCLUDES(failure_mu_);

  /// Publishes the final model for post-Finish snapshots. The guard exists
  /// for the same reason as InProcessSession's: the annotation pass flagged
  /// final_view_ as written after finished_ flips, so a snapshot racing
  /// Finish (a contract violation) could read a half-written ModelView.
  void SetFinalView(const ModelView& view) DSGM_EXCLUDES(view_mu_);

  /// Consistent model snapshot from the (possibly live) coordinator.
  ModelView ViewFromCoordinator(int64_t events_observed) const;

  /// Exact mode: no rounds, so sites may coalesce the reports of a whole
  /// EventBatch into one bundle (cluster/site_node.h).
  bool exact_mode() const { return epsilons_.empty(); }

  const SessionOptions options_;
  const int num_sites_;
  std::shared_ptr<const CounterLayout> layout_;
  /// Per-counter epsilons in the counter layout (LayoutEpsilons); empty in
  /// exact mode.
  const std::vector<float> epsilons_;
  /// Per-site liveness/progress table behind Metrics() and the dump lines;
  /// lock-free (common/metrics.h contract). Mutable: refreshing stats into
  /// it from the const Metrics() path mutates no logical session state.
  mutable SiteHealthBoard health_board_;
  WallTimer wall_;
  std::unique_ptr<CoordinatorNode> coordinator_;
  std::thread coordinator_thread_;
  /// One event lane per site, filled by the derived backend.
  std::vector<Channel<EventBatch>*> event_channels_;

 private:
  mutable Mutex failure_mu_;
  Status run_failure_ DSGM_GUARDED_BY(failure_mu_);
  mutable Mutex view_mu_;
  ModelView final_view_ DSGM_GUARDED_BY(view_mu_);
};

StatusOr<std::unique_ptr<Session>> CreateInProcessSession(
    const BayesianNetwork& network, const SessionOptions& options);
StatusOr<std::unique_ptr<Session>> CreateThreadsSession(
    const BayesianNetwork& network, const SessionOptions& options);
StatusOr<std::unique_ptr<Session>> CreateLocalTcpSession(
    const BayesianNetwork& network, const SessionOptions& options);

}  // namespace internal
}  // namespace dsgm

#endif  // DSGM_API_BACKENDS_H_
