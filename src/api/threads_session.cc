// Cluster-session machinery shared by the kThreads and kLocalTcp backends,
// plus the kThreads backend itself (one OS thread per site and a
// coordinator thread, wired by a pluggable ClusterTransport — the
// substrate of the paper's Figs. 7-8).

#include <memory>
#include <string>
#include <utility>

#include "api/backends.h"
#include "api/sharded_router.h"
#include "cluster/site_node.h"
#include "common/check.h"

namespace dsgm {
namespace internal {

RunReport ReportFromClusterResult(const ClusterResult& result, Backend backend) {
  RunReport report;
  report.backend = backend;
  report.events_processed = result.events_processed;
  report.runtime_seconds = result.runtime_seconds;
  report.wall_seconds = result.wall_seconds;
  report.throughput_events_per_sec = result.throughput_events_per_sec;
  report.comm = result.comm;
  report.max_counter_rel_error = result.max_counter_rel_error;
  report.transport_bytes_up = result.transport_bytes_up;
  report.transport_bytes_down = result.transport_bytes_down;
  report.transport_measured = result.transport_measured;
  return report;
}

// --- ClusterSessionBase -------------------------------------------------

ClusterSessionBase::ClusterSessionBase(Backend backend,
                                       const BayesianNetwork& network,
                                       const SessionOptions& options,
                                       const SeedSchedule& seeds)
    : Session(backend, network, options.tracker.num_sites, options.batch_size,
              seeds.sampler_seed, seeds.router_seed),
      options_(options),
      num_sites_(options.tracker.num_sites),
      layout_(std::make_shared<CounterLayout>(network)),
      epsilons_(LayoutEpsilons(network, options.tracker)),
      health_board_(options.tracker.num_sites) {}

MetricsSnapshot ClusterSessionBase::Metrics() const {
  RefreshSiteHealth();
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  snapshot.captured_nanos = NowNanos();
  snapshot.sites = health_board_.Snapshot(snapshot.captured_nanos);
  return snapshot;
}

void ClusterSessionBase::StartCoordinator(
    Channel<UpdateBundle>* updates,
    std::vector<Channel<RoundAdvance>*> commands) {
  coordinator_ = std::make_unique<CoordinatorNode>(
      epsilons_, layout_->total_counters(),
      num_sites_, options_.tracker.probability_constant, updates,
      std::move(commands));
  coordinator_thread_ = std::thread([this] { coordinator_->Run(); });
}

Status ClusterSessionBase::DeliverBatch(internal::IngestShard& shard, int site,
                                        EventBatch&& batch) {
  Channel<EventBatch>*& lane = shard.lanes[static_cast<size_t>(site)];
  if (lane == nullptr) lane = ShardLane(site);
  if (!lane->Push(std::move(batch))) {
    return RunFailureOr(InternalError("session: site " + std::to_string(site) +
                                      "'s event lane closed mid-run"));
  }
  return Status::Ok();
}

void ClusterSessionBase::RecordRunFailure(const Status& status) {
  DSGM_CHECK(!status.ok());
  MutexLock lock(&failure_mu_);
  if (run_failure_.ok()) run_failure_ = status;
}

Status ClusterSessionBase::run_failure() const {
  MutexLock lock(&failure_mu_);
  return run_failure_;
}

void ClusterSessionBase::SetFinalView(const ModelView& view) {
  MutexLock lock(&view_mu_);
  final_view_ = view;
}

Status ClusterSessionBase::RunFailureOr(Status fallback) const {
  Status failure = run_failure();
  return failure.ok() ? fallback : failure;
}

void ClusterSessionBase::CloseEventChannels() {
  for (Channel<EventBatch>* channel : event_channels_) channel->Close();
}

void ClusterSessionBase::JoinCoordinator() {
  if (coordinator_thread_.joinable()) coordinator_thread_.join();
}

ModelView ClusterSessionBase::ViewFromCoordinator(int64_t events_observed) const {
  std::vector<double> estimates;
  CommStats comm;
  coordinator_->SnapshotState(&estimates, &comm);
  return ModelView(network(), layout_, std::move(estimates), events_observed,
                   comm, options_.tracker.laplace_alpha);
}

StatusOr<ModelView> ClusterSessionBase::Snapshot() {
  if (finished_.load(std::memory_order_acquire)) {
    MutexLock lock(&view_mu_);
    if (final_view_.empty()) {
      return RunFailureOr(FailedPreconditionError(
          "session: Finish failed; no final model is available"));
    }
    return final_view_;
  }
  // A failed run has no valid model to present, even if the estimates are
  // still readable.
  DSGM_RETURN_IF_ERROR(run_failure());
  // Hand this thread's staged batches to the sites first: a query must
  // reflect every event the calling thread pushed (modulo in-flight
  // delivery); other producer threads' staged batches count as in-flight.
  DSGM_RETURN_IF_ERROR(FlushCallerShard());
  return ViewFromCoordinator(events_pushed());
}

// --- kThreads backend ---------------------------------------------------

namespace {

class ThreadsSession final : public ClusterSessionBase {
 public:
  ThreadsSession(const BayesianNetwork& network, const SessionOptions& options,
                 const SeedSchedule& seeds)
      : ClusterSessionBase(Backend::kThreads, network, options, seeds) {
    const int k = num_sites_;
    const bool loopback = !options_.transport;
    transport_ = options_.transport ? options_.transport(k)
                                    : MakeLoopbackTransport(k);
    DSGM_CHECK_EQ(transport_->num_sites(), k);
    const CoordinatorEndpoints endpoints = transport_->coordinator();
    std::vector<Channel<EventBatch>*> site_events = endpoints.events;
    if (loopback) {
      // In-process sites: bypass the transport's MPMC event queues with one
      // SPSC lane hub per site, so N producer shards dispatch without any
      // shared lock. Socket transports keep their own (thread-safe) channel
      // Push at the transport boundary instead.
      for (int s = 0; s < k; ++s) {
        hubs_.push_back(std::make_unique<SpscLaneHub>());
      }
      site_events.clear();
      event_channels_.clear();
      for (int s = 0; s < k; ++s) {
        site_events.push_back(hubs_[static_cast<size_t>(s)].get());
        event_channels_.push_back(hubs_[static_cast<size_t>(s)].get());
      }
    } else {
      event_channels_ = endpoints.events;
    }
    StartCoordinator(endpoints.updates, endpoints.commands);
    for (int s = 0; s < k; ++s) {
      const SiteEndpoints site_endpoints = transport_->site(s);
      Channel<EventBatch>* events =
          loopback ? site_events[static_cast<size_t>(s)] : site_endpoints.events;
      sites_.push_back(std::make_unique<SiteNode>(
          s, network, seeds.site_seeds[static_cast<size_t>(s)], events,
          site_endpoints.commands, site_endpoints.updates, exact_mode()));
    }
    for (int s = 0; s < k; ++s) {
      site_threads_.emplace_back(
          [this, s] { sites_[static_cast<size_t>(s)]->Run(); });
    }
    // After the sites exist: the dump fn refreshes the board from them.
    StartMetricsDump(options_.metrics_dump_ms, options_.metrics_dump_stream,
                     [this] { return Metrics(); });
  }

  ~ThreadsSession() override { Teardown(); }

  StatusOr<RunReport> Finish() override {
    if (finished_.load(std::memory_order_acquire)) {
      return FailedPreconditionError("session: Finish called twice");
    }
    finished_.store(true, std::memory_order_release);
    // Tear down even when the flush fails (a site lane closed early):
    // leaving protocol threads running behind an error return would leak
    // them until the destructor.
    const Status flushed = FlushAllShards();
    Teardown();
    DSGM_RETURN_IF_ERROR(flushed);

    ClusterResult result;
    result.wall_seconds = wall_.ElapsedSeconds();
    const TransportStats transport_stats = transport_->stats();
    result.transport_bytes_up = transport_stats.bytes_up;
    result.transport_bytes_down = transport_stats.bytes_down;
    result.transport_measured = transport_stats.measured;
    for (const auto& site : sites_) {
      result.events_processed += site->events_processed();
    }
    DSGM_CHECK_EQ(result.events_processed, events_pushed());

    std::vector<uint64_t> exact_totals(
        static_cast<size_t>(layout_->total_counters()), 0);
    for (const auto& site : sites_) {
      for (size_t c = 0; c < exact_totals.size(); ++c) {
        exact_totals[c] += site->local_counts()[c];
      }
    }
    FinalizeClusterResult(*coordinator_, exact_totals, &result);
    transport_->Shutdown();

    RunReport report = ReportFromClusterResult(result, Backend::kThreads);
    report.model = ViewFromCoordinator(result.events_processed);
    report.metrics = Metrics();
    report.model.AttachMetrics(report.metrics);
    SetFinalView(report.model);
    return report;
  }

 protected:
  Channel<EventBatch>* ShardLane(int site) override {
    if (!hubs_.empty()) return hubs_[static_cast<size_t>(site)]->AddLane();
    return ClusterSessionBase::ShardLane(site);
  }

  /// In-process sites: sample each SiteNode's live stats atomics straight
  /// into the board (there is no wire for kStatsReport frames to ride).
  void RefreshSiteHealth() const override {
    const int64_t now = NowNanos();
    for (size_t s = 0; s < sites_.size(); ++s) {
      const SiteStatsReport stats = sites_[s]->StatsReport();
      health_board_.Touch(static_cast<int>(s), now);
      health_board_.Update(static_cast<int>(s), stats.events_processed,
                           stats.updates_sent, stats.syncs_sent,
                           stats.rounds_seen);
    }
  }

 private:
  /// Ends the stream and joins every backend thread. Safe to call twice;
  /// also runs from the destructor so dropping an unfinished session never
  /// leaks running threads.
  void Teardown() {
    if (torn_down_) return;
    torn_down_ = true;
    // Before anything dies: the dump fn reads the SiteNodes via
    // RefreshSiteHealth, and its final line should see the run's totals.
    StopMetricsDump();
    CloseEventChannels();
    for (std::thread& thread : site_threads_) {
      if (thread.joinable()) thread.join();
    }
    JoinCoordinator();
  }

  std::unique_ptr<ClusterTransport> transport_;
  /// Loopback mode only: per-site SPSC lane hubs (they ARE the site event
  /// channels then). Destroyed after Teardown joined every consumer.
  std::vector<std::unique_ptr<SpscLaneHub>> hubs_;
  std::vector<std::unique_ptr<SiteNode>> sites_;
  std::vector<std::thread> site_threads_;
  bool torn_down_ = false;
};

}  // namespace

StatusOr<std::unique_ptr<Session>> CreateThreadsSession(
    const BayesianNetwork& network, const SessionOptions& options) {
  return std::unique_ptr<Session>(new ThreadsSession(
      network, options, DeriveSeedSchedule(options.tracker)));
}

}  // namespace internal
}  // namespace dsgm
