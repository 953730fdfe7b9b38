// Session base class (sharded concurrent ingest), SessionBuilder, and the
// kInProcess backend.

#include "dsgm/session.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "api/backends.h"
#include "common/check.h"
#include "core/mle_tracker.h"

namespace dsgm {

const char* ToString(Backend backend) {
  switch (backend) {
    case Backend::kInProcess:
      return "in-process";
    case Backend::kThreads:
      return "threads";
    case Backend::kLocalTcp:
      return "local-tcp";
  }
  return "unknown";
}

// --- Session base -------------------------------------------------------

namespace {

uint64_t NextSessionId() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Ingest-path instruments, resolved once. Updated at BATCH granularity only
// (one Add per delivered batch, never per event), so eight producers don't
// contend on a metric cache line inside the staging hot loop.
Counter* IngestEventsStaged() {
  static Counter* const counter =
      MetricsRegistry::Global().GetCounter("api.ingest.events_staged");
  return counter;
}
Counter* IngestBatchesFlushed() {
  static Counter* const counter =
      MetricsRegistry::Global().GetCounter("api.ingest.batches_flushed");
  return counter;
}

/// A thread's shard cache: one entry per session it has pushed into. The
/// shared_ptr keeps a shard's memory valid even after its session died;
/// `retired` entries are pruned on the next slow-path registration so
/// long-lived ingest threads don't accumulate shards across sessions. The
/// destructor runs at thread exit (and on pruning): it PARKS the shard
/// with its still-live session as an orphan, so an exited producer's
/// staged events are delivered by the session's next Snapshot or Finish
/// flush instead of waiting only for Finish. It must not deliver batches
/// itself: delivery runs transport code (e.g. the reactor's thread_local
/// encode scratch), and C++ gives no ordering among a dying thread's TLS
/// destructors — touching another thread_local here is a use-after-free.
struct ShardRef {
  uint64_t session_id = 0;
  std::shared_ptr<internal::IngestShard> shard;
  std::shared_ptr<internal::SessionLiveHandle> live;

  ShardRef(uint64_t id, std::shared_ptr<internal::IngestShard> shard_in,
           std::shared_ptr<internal::SessionLiveHandle> live_in)
      : session_id(id), shard(std::move(shard_in)), live(std::move(live_in)) {}
  // Moves must not park: vector growth and remove_if shuffle entries
  // around, and a moved-from ref holds null pointers, which the destructor
  // treats as "nothing to do".
  ShardRef(ShardRef&&) = default;
  ShardRef& operator=(ShardRef&&) = default;
  ShardRef(const ShardRef&) = delete;
  ShardRef& operator=(const ShardRef&) = delete;

  ~ShardRef() {
    if (shard == nullptr || live == nullptr) return;
    MutexLock lock(&live->mu);
    if (live->session != nullptr) {
      internal::FlushShardOnThreadExit(live->session, shard);
    }
  }
};
thread_local std::vector<ShardRef> tls_shards;

}  // namespace

namespace internal {

void FlushShardOnThreadExit(Session* session,
                            const std::shared_ptr<IngestShard>& shard) {
  // A finished session has flushed everything already; leftover staged
  // events of a thread outliving Finish are dropped, exactly as a failed
  // flush would drop them.
  if (session->finished_.load(std::memory_order_acquire)) return;
  MutexLock lock(&session->orphans_mu_);
  session->orphaned_shards_.push_back(shard);
}

}  // namespace internal

Session::Session(Backend backend, const BayesianNetwork& network, int num_sites,
                 int batch_size, uint64_t stream_seed, uint64_t router_seed)
    : backend_(backend),
      network_(&network),
      num_sites_(num_sites),
      batch_size_(batch_size),
      stream_seed_(stream_seed),
      router_seed_(router_seed),
      id_(NextSessionId()),
      live_(std::make_shared<internal::SessionLiveHandle>()) {
  live_->session = this;
}

Session::~Session() {
  // Backends whose dump fn captures derived state stopped the dumper in
  // their own teardown already; this covers the base-only case (kInProcess)
  // and is a no-op otherwise.
  StopMetricsDump();
  {
    // After this, an exiting producer thread's flush hook sees a dead
    // session and skips (the lock also waits out a flush already running).
    MutexLock lock(&live_->mu);
    live_->session = nullptr;
  }
  MutexLock lock(&shards_mu_);
  for (const auto& shard : shards_) {
    shard->retired.store(true, std::memory_order_release);
  }
}

MetricsSnapshot Session::Metrics() const {
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  snapshot.captured_nanos = NowNanos();
  return snapshot;
}

void Session::StartMetricsDump(int period_ms, std::ostream* out,
                               MetricsDumper::SnapshotFn fn) {
  if (period_ms <= 0) return;
  DSGM_CHECK(metrics_dumper_ == nullptr);
  metrics_dumper_ =
      std::make_unique<MetricsDumper>(period_ms, out, std::move(fn));
}

void Session::StopMetricsDump() {
  if (metrics_dumper_ != nullptr) metrics_dumper_->Stop();
}

internal::IngestShard* Session::CurrentShard() {
  for (const ShardRef& ref : tls_shards) {
    if (ref.session_id == id_) return ref.shard.get();
  }
  return RegisterShard();
}

internal::IngestShard* Session::RegisterShard() {
  tls_shards.erase(
      std::remove_if(tls_shards.begin(), tls_shards.end(),
                     [](const ShardRef& ref) {
                       return ref.shard->retired.load(std::memory_order_acquire);
                     }),
      tls_shards.end());
  auto shard = std::make_shared<internal::IngestShard>();
  shard->session_id = id_;
  const size_t reserve = static_cast<size_t>(batch_size_) *
                         static_cast<size_t>(network_->num_variables());
  shard->pending.resize(static_cast<size_t>(num_sites_));
  for (EventBatch& batch : shard->pending) batch.values.reserve(reserve);
  shard->lanes.assign(static_cast<size_t>(num_sites_), nullptr);
  {
    MutexLock lock(&shards_mu_);
    shard->index = static_cast<int>(shards_.size());
    if (shard->index == 0) {
      // The first shard routes with the session's own Rng — a single-caller
      // session assigns events to sites exactly as pre-sharding sessions
      // did, keeping identical configs bit-reproducible across backends.
      shard->router = Rng(router_seed_);
    } else {
      uint64_t derive =
          router_seed_ ^ (0x9e3779b97f4a7c15ULL *
                          static_cast<uint64_t>(shard->index));
      shard->router = Rng(SplitMix64(derive));
    }
    shards_.push_back(shard);
  }
  tls_shards.emplace_back(id_, shard, live_);
  return shard.get();
}

Status Session::StageRouted(internal::IngestShard* shard,
                            const Instance& event) {
  const int site =
      static_cast<int>(shard->router.NextBounded(static_cast<uint64_t>(num_sites_)));
  EventBatch& batch = shard->pending[static_cast<size_t>(site)];
  batch.values.insert(batch.values.end(), event.begin(), event.end());
  if (++batch.num_events >= batch_size_) {
    EventBatch full = std::move(batch);
    batch = EventBatch{};
    batch.values.reserve(static_cast<size_t>(batch_size_) *
                         static_cast<size_t>(network_->num_variables()));
    IngestEventsStaged()->Add(static_cast<uint64_t>(full.num_events));
    IngestBatchesFlushed()->Increment();
    DSGM_RETURN_IF_ERROR(DeliverBatch(*shard, site, std::move(full)));
  }
  events_pushed_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Session::FlushShard(internal::IngestShard* shard) {
  MutexLock lock(&shard->flush_mu);
  return FlushShardLocked(shard);
}

Status Session::FlushShardLocked(internal::IngestShard* shard) {
  // Over pending.size(), not num_sites_: an exit-flushed shard has released
  // its (empty) staging buffers entirely.
  for (size_t s = 0; s < shard->pending.size(); ++s) {
    EventBatch& batch = shard->pending[s];
    if (batch.num_events == 0) continue;
    EventBatch full = std::move(batch);
    batch = EventBatch{};
    batch.values.reserve(static_cast<size_t>(batch_size_) *
                         static_cast<size_t>(network_->num_variables()));
    IngestEventsStaged()->Add(static_cast<uint64_t>(full.num_events));
    IngestBatchesFlushed()->Increment();
    DSGM_RETURN_IF_ERROR(DeliverBatch(*shard, static_cast<int>(s),
                                      std::move(full)));
  }
  return Status::Ok();
}

Status Session::FlushOrphanedShards() {
  std::vector<std::shared_ptr<internal::IngestShard>> orphans;
  {
    MutexLock lock(&orphans_mu_);
    orphans.swap(orphaned_shards_);
  }
  for (const auto& shard : orphans) {
    MutexLock lock(&shard->flush_mu);
    DSGM_RETURN_IF_ERROR(FlushShardLocked(shard.get()));
    // The owner thread is gone; nothing will stage into this shard again,
    // so the reserved staging buffers can go now instead of at teardown.
    shard->pending.clear();
    shard->pending.shrink_to_fit();
  }
  return Status::Ok();
}

Status Session::FlushCallerShard() {
  DSGM_RETURN_IF_ERROR(FlushOrphanedShards());
  for (const ShardRef& ref : tls_shards) {
    if (ref.session_id == id_) return FlushShard(ref.shard.get());
  }
  return Status::Ok();  // This thread never pushed; nothing staged.
}

Status Session::FlushAllShards() {
  std::vector<std::shared_ptr<internal::IngestShard>> shards;
  {
    MutexLock lock(&shards_mu_);
    shards = shards_;
  }
  {
    // The registry already covers every orphan; just drop the parked refs.
    MutexLock lock(&orphans_mu_);
    orphaned_shards_.clear();
  }
  for (const auto& shard : shards) {
    DSGM_RETURN_IF_ERROR(FlushShard(shard.get()));
  }
  return Status::Ok();
}

Status Session::Push(const Instance& event) {
  if (finished_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("session: Push after Finish");
  }
  const int n = network_->num_variables();
  if (static_cast<int>(event.size()) != n) {
    return InvalidArgumentError(
        "session: instance has " + std::to_string(event.size()) +
        " values, network has " + std::to_string(n) + " variables");
  }
  for (int i = 0; i < n; ++i) {
    const int value = event[static_cast<size_t>(i)];
    if (value < 0 || value >= network_->cardinality(i)) {
      return InvalidArgumentError(
          "session: value " + std::to_string(value) + " for variable " +
          std::to_string(i) + " is outside [0, " +
          std::to_string(network_->cardinality(i)) + ")");
    }
  }
  return StageRouted(CurrentShard(), event);
}

Status Session::PushBatch(const std::vector<Instance>& events) {
  for (const Instance& event : events) {
    DSGM_RETURN_IF_ERROR(Push(event));
  }
  return Status::Ok();
}

Status Session::Drain(EventSource* source) {
  Instance event;
  while (source->Next(&event)) {
    DSGM_RETURN_IF_ERROR(Push(event));
  }
  return Status::Ok();
}

Status Session::StreamGroundTruth(int64_t num_events) {
  if (num_events < 0) {
    return InvalidArgumentError("session: num_events must be non-negative");
  }
  if (finished_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("session: StreamGroundTruth after Finish");
  }
  if (ground_truth_ == nullptr) {
    ground_truth_ = std::make_unique<ForwardSampler>(*network_, stream_seed_);
  }
  internal::IngestShard* shard = CurrentShard();
  Instance event;
  for (int64_t e = 0; e < num_events; ++e) {
    ground_truth_->Sample(&event);
    // Straight to the shard: the sampler produces in-domain values by
    // construction, and this is the Figs. 7-8 dispatch hot path — Push's
    // per-event domain validation is for external input.
    DSGM_RETURN_IF_ERROR(StageRouted(shard, event));
  }
  return Status::Ok();
}

// --- kInProcess backend -------------------------------------------------

namespace internal {

SeedSchedule DeriveSeedSchedule(const TrackerConfig& tracker) {
  Rng seeder(tracker.seed);
  SeedSchedule seeds;
  seeds.site_seeds.reserve(static_cast<size_t>(tracker.num_sites));
  for (int s = 0; s < tracker.num_sites; ++s) {
    seeds.site_seeds.push_back(seeder.Next());
  }
  seeds.sampler_seed = seeder.Next();
  seeds.router_seed = seeder.Next();
  return seeds;
}

namespace {

class InProcessSession final : public Session {
 public:
  InProcessSession(const BayesianNetwork& network, const SessionOptions& options,
                   const SeedSchedule& seeds)
      // Batch size 1: events reach the tracker in push order, so a
      // single-caller session reproduces pre-sharding results bit-exactly
      // even in approx mode (the simulated protocol is order-sensitive).
      // Concurrent producers serialize on tracker_mu_ per event — correct,
      // and the scaling story belongs to the cluster backends.
      : Session(Backend::kInProcess, network, options.tracker.num_sites,
                /*batch_size=*/1, seeds.sampler_seed, seeds.router_seed),
        layout_(std::make_shared<CounterLayout>(network)),
        scratch_(static_cast<size_t>(network.num_variables())),
        tracker_(network, options.tracker) {
    // The dump fn touches only the process-wide registry (no per-site table
    // in-process), so the base destructor's stop is soon enough.
    StartMetricsDump(options.metrics_dump_ms, options.metrics_dump_stream,
                     [this] { return Metrics(); });
  }

  StatusOr<ModelView> Snapshot() override {
    if (finished_.load(std::memory_order_acquire)) {
      // Under tracker_mu_, not bare: the annotation pass flagged final_view_
      // as written by Finish after the finished_ flag flips, so a snapshot
      // racing Finish (a contract violation, but one that must stay
      // memory-safe) could read a half-written ModelView.
      MutexLock lock(&tracker_mu_);
      return final_view_;
    }
    DSGM_RETURN_IF_ERROR(FlushCallerShard());
    MutexLock lock(&tracker_mu_);
    return BuildView();
  }

  StatusOr<RunReport> Finish() override {
    if (finished_.load(std::memory_order_acquire)) {
      return FailedPreconditionError("session: Finish called twice");
    }
    DSGM_RETURN_IF_ERROR(FlushAllShards());
    finished_.store(true, std::memory_order_release);
    MutexLock lock(&tracker_mu_);
    RunReport report;
    report.backend = Backend::kInProcess;
    report.events_processed = tracker_.events_observed();
    report.wall_seconds = wall_.ElapsedSeconds();
    report.runtime_seconds = report.wall_seconds;
    report.throughput_events_per_sec =
        report.runtime_seconds > 0.0
            ? static_cast<double>(report.events_processed) / report.runtime_seconds
            : 0.0;
    report.comm = tracker_.comm();
    report.memory_bytes = tracker_.MemoryBytes();
    report.max_counter_rel_error = MaxRelErrorToExact();
    report.model = BuildView();
    report.metrics = Metrics();
    report.model.AttachMetrics(report.metrics);
    final_view_ = report.model;
    StopMetricsDump();
    return report;
  }

 protected:
  Status DeliverBatch(internal::IngestShard& /*shard*/, int site,
                      EventBatch&& batch) override {
    MutexLock lock(&tracker_mu_);
    const int n = layout_->num_vars;
    const int32_t* cursor = batch.values.data();
    for (int32_t e = 0; e < batch.num_events; ++e) {
      scratch_.assign(cursor, cursor + n);
      tracker_.Observe(scratch_, site);
      cursor += n;
    }
    return Status::Ok();
  }

 private:
  ModelView BuildView() const DSGM_REQUIRES(tracker_mu_) {
    std::vector<double> estimates(
        static_cast<size_t>(layout_->total_counters()), 0.0);
    ForEachCell([&estimates](int64_t id, double estimate, uint64_t /*exact*/) {
      estimates[static_cast<size_t>(id)] = estimate;
    });
    return ModelView(network(), layout_, std::move(estimates),
                     tracker_.events_observed(), tracker_.comm(),
                     tracker_.config().laplace_alpha);
  }

  /// Same validation metric as the cluster backends: max relative error of
  /// the estimates against the exact totals, over counters with exact
  /// total >= 64.
  double MaxRelErrorToExact() const DSGM_REQUIRES(tracker_mu_) {
    double max_rel = 0.0;
    ForEachCell([&max_rel](int64_t /*id*/, double estimate, uint64_t exact) {
      if (exact < 64) return;
      const double rel = std::abs(estimate - static_cast<double>(exact)) /
                         static_cast<double>(exact);
      max_rel = std::max(max_rel, rel);
    });
    return max_rel;
  }

  template <typename Fn>
  void ForEachCell(Fn&& fn) const DSGM_REQUIRES(tracker_mu_) {
    const int n = layout_->num_vars;
    for (int i = 0; i < n; ++i) {
      const int64_t rows = network().parent_cardinality(i);
      const int card = network().cardinality(i);
      for (int64_t row = 0; row < rows; ++row) {
        for (int value = 0; value < card; ++value) {
          fn(layout_->JointId(i, row, value),
             tracker_.JointCounterEstimate(i, value, row),
             tracker_.JointCounterExact(i, value, row));
        }
        fn(layout_->ParentId(i, row), tracker_.ParentCounterEstimate(i, row),
           tracker_.ParentCounterExact(i, row));
      }
    }
  }

  std::shared_ptr<const CounterLayout> layout_;
  /// Serializes tracker access between concurrent producers (one lock per
  /// delivered event) and snapshot/finish readers. Also covers final_view_:
  /// the finished-path read in Snapshot must not race Finish's write.
  mutable Mutex tracker_mu_;
  Instance scratch_ DSGM_GUARDED_BY(tracker_mu_);  // DeliverBatch decode buffer
  MleTracker tracker_ DSGM_GUARDED_BY(tracker_mu_);
  WallTimer wall_;
  ModelView final_view_ DSGM_GUARDED_BY(tracker_mu_);
};

}  // namespace

StatusOr<std::unique_ptr<Session>> CreateInProcessSession(
    const BayesianNetwork& network, const SessionOptions& options) {
  return std::unique_ptr<Session>(new InProcessSession(
      network, options, DeriveSeedSchedule(options.tracker)));
}

}  // namespace internal

// --- SessionBuilder -----------------------------------------------------

SessionBuilder::SessionBuilder(const BayesianNetwork& network)
    : network_(&network) {}

SessionBuilder& SessionBuilder::WithOptions(const SessionOptions& options) {
  options_ = options;
  return *this;
}
SessionBuilder& SessionBuilder::WithBackend(Backend backend) {
  options_.backend = backend;
  return *this;
}
SessionBuilder& SessionBuilder::WithTracker(const TrackerConfig& tracker) {
  options_.tracker = tracker;
  return *this;
}
SessionBuilder& SessionBuilder::WithStrategy(TrackingStrategy strategy) {
  options_.tracker.strategy = strategy;
  return *this;
}
SessionBuilder& SessionBuilder::WithCounterType(CounterType type) {
  options_.tracker.counter_type = type;
  return *this;
}
SessionBuilder& SessionBuilder::WithEpsilon(double epsilon) {
  options_.tracker.epsilon = epsilon;
  return *this;
}
SessionBuilder& SessionBuilder::WithSites(int num_sites) {
  options_.tracker.num_sites = num_sites;
  return *this;
}
SessionBuilder& SessionBuilder::WithSeed(uint64_t seed) {
  options_.tracker.seed = seed;
  return *this;
}
SessionBuilder& SessionBuilder::WithBatchSize(int batch_size) {
  options_.batch_size = batch_size;
  return *this;
}
SessionBuilder& SessionBuilder::WithTransport(TransportFactory transport) {
  options_.transport = std::move(transport);
  return *this;
}
SessionBuilder& SessionBuilder::WithListenPort(int port) {
  options_.listen_port = port;
  return *this;
}
SessionBuilder& SessionBuilder::WithPortFile(std::string path) {
  options_.port_file = std::move(path);
  return *this;
}
SessionBuilder& SessionBuilder::WithBindAddress(std::string address) {
  options_.bind_address = std::move(address);
  return *this;
}
SessionBuilder& SessionBuilder::WithExternalSites() {
  options_.external_sites = true;
  return *this;
}
SessionBuilder& SessionBuilder::WithSiteConnectTimeout(int timeout_ms) {
  options_.site_connect_timeout_ms = timeout_ms;
  return *this;
}
SessionBuilder& SessionBuilder::WithIoBackend(IoBackendKind io_backend) {
  options_.io_backend = io_backend;
  return *this;
}
SessionBuilder& SessionBuilder::WithLivenessTimeout(int timeout_ms) {
  options_.liveness_timeout_ms = timeout_ms;
  return *this;
}
SessionBuilder& SessionBuilder::WithHeartbeatInterval(int interval_ms) {
  options_.heartbeat_interval_ms = interval_ms;
  return *this;
}
SessionBuilder& SessionBuilder::WithMetricsDump(int period_ms,
                                                std::ostream* out) {
  options_.metrics_dump_ms = period_ms;
  options_.metrics_dump_stream = out;
  return *this;
}
SessionBuilder& SessionBuilder::WithTraceExport(std::string path) {
  options_.trace_out = std::move(path);
  return *this;
}
SessionBuilder& SessionBuilder::WithPostmortemDir(std::string dir) {
  options_.postmortem_dir = std::move(dir);
  return *this;
}

StatusOr<std::unique_ptr<Session>> SessionBuilder::Build() const {
  DSGM_RETURN_IF_ERROR(options_.tracker.Validate());
  if (options_.batch_size <= 0) {
    return InvalidArgumentError("session: batch_size must be positive");
  }
  if (options_.backend != Backend::kInProcess &&
      options_.tracker.strategy != TrackingStrategy::kExactMle &&
      (options_.tracker.counter_type != CounterType::kRandomized ||
       options_.tracker.replicas > 1)) {
    // The cluster sites and coordinator implement one randomized counter
    // instance; running them for a config asking for deterministic
    // counters or replicas would silently run a different algorithm. (An
    // exact run reads neither setting on any backend.)
    return InvalidArgumentError(
        "session: counter_type kDeterministic and replicas > 1 are "
        "implemented only by Backend::kInProcess");
  }
  if (options_.transport && options_.backend != Backend::kThreads) {
    return InvalidArgumentError(
        "session: WithTransport applies only to Backend::kThreads");
  }
  const SessionOptions defaults;
  const bool has_tcp_options =
      options_.external_sites || options_.listen_port != 0 ||
      !options_.port_file.empty() ||
      options_.bind_address != defaults.bind_address ||
      options_.liveness_timeout_ms != defaults.liveness_timeout_ms ||
      options_.heartbeat_interval_ms != defaults.heartbeat_interval_ms;
  if (has_tcp_options && options_.backend != Backend::kLocalTcp) {
    return InvalidArgumentError(
        "session: listener/liveness options apply only to Backend::kLocalTcp");
  }
  if (options_.liveness_timeout_ms < 0 || options_.heartbeat_interval_ms < 0) {
    return InvalidArgumentError(
        "session: liveness timeout and heartbeat interval must be >= 0");
  }
  if (options_.metrics_dump_ms < 0) {
    return InvalidArgumentError("session: metrics_dump_ms must be >= 0");
  }
  if (options_.backend == Backend::kLocalTcp && !options_.external_sites &&
      options_.liveness_timeout_ms > 0 &&
      (options_.heartbeat_interval_ms == 0 ||
       options_.heartbeat_interval_ms >= options_.liveness_timeout_ms)) {
    // In-process sites heartbeat at the session-configured cadence; a
    // cadence at or past the deadline guarantees spurious site deaths.
    return InvalidArgumentError(
        "session: heartbeat_interval_ms must be in (0, liveness_timeout_ms) "
        "when liveness is enabled with in-process sites");
  }
  switch (options_.backend) {
    case Backend::kInProcess:
      return internal::CreateInProcessSession(*network_, options_);
    case Backend::kThreads:
      return internal::CreateThreadsSession(*network_, options_);
    case Backend::kLocalTcp:
      return internal::CreateLocalTcpSession(*network_, options_);
  }
  return InvalidArgumentError("session: unknown backend");
}

}  // namespace dsgm
