// The kLocalTcp backend: the coordinator side of a genuinely socketed
// cluster, served by the reactor transport — ONE I/O thread owns every
// site connection (net/reactor_transport.h), so the coordinator scales to
// hundreds of sites without hundreds of reader/writer threads. Sites
// either run as in-process threads serving the full site role through
// ServeSite/RunRemoteSite (the default, self-contained mode) or as
// external dsgm_site processes (SessionOptions::external_sites — the
// multi-host deployment the dsgm_coordinator binary drives, reachable from
// other hosts via SessionOptions::bind_address).
//
// Liveness (the FailRun policy): the reactor arms a per-site deadline; a
// site silent past SessionOptions::liveness_timeout_ms — or whose
// connection drops mid-run — is declared dead. The failure handler records
// an UNAVAILABLE status naming the site, cancels the site's outstanding
// syncs on the CoordinatorNode, and closes the merged update queue so the
// protocol loop exits; every subsequent session call reports the recorded
// status instead of stalling.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "api/backends.h"
#include "cluster/remote_runner.h"
#include "common/check.h"
#include "common/tracing.h"
#include "net/reactor_transport.h"
#include "net/tcp_socket.h"

namespace dsgm {
namespace internal {
namespace {

Status WritePortFile(const std::string& path, int port) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return InternalError("cannot write port file " + tmp);
    out << port << "\n";
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return InternalError("cannot rename port file into place: " + path);
  }
  return Status::Ok();
}

Status WriteTextFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return InternalError("cannot write " + path);
  out << contents;
  out.flush();
  if (!out) return InternalError("short write to " + path);
  return Status::Ok();
}

class LocalTcpSession final : public ClusterSessionBase {
 public:
  LocalTcpSession(const BayesianNetwork& network, const SessionOptions& options,
                  const SeedSchedule& seeds)
      : ClusterSessionBase(Backend::kLocalTcp, network, options, seeds),
        seeds_(seeds) {}

  ~LocalTcpSession() override { Abort(); }

  /// Listens, (optionally) spawns the in-process site threads, accepts one
  /// hello-identified connection per site onto the reactor, and starts the
  /// coordinator.
  Status Init() {
    const int k = num_sites_;
    StatusOr<TcpListener> listener =
        TcpListener::Listen(options_.listen_port, k + 8, options_.bind_address);
    if (!listener.ok()) return listener.status();
    if (!options_.port_file.empty()) {
      DSGM_RETURN_IF_ERROR(WritePortFile(options_.port_file, listener->port()));
    }

    trace_board_ = std::make_unique<ClusterTraceBoard>(k);
    {
      AlertConfig alert_config;
      if (options_.heartbeat_interval_ms > 0) {
        alert_config.heartbeat_interval_ms = options_.heartbeat_interval_ms;
      }
      MutexLock lock(&alert_mu_);
      alert_engine_ = std::make_unique<AlertEngine>(alert_config);
    }

    ReactorCoordinator::Options io_options;
    io_options.io_backend = options_.io_backend;
    io_options.liveness_timeout_ms = options_.liveness_timeout_ms;
    io_options.health = &health_board_;
    io_options.trace_board = trace_board_.get();
    io_options.on_site_failure = [this](int site, const Status& status) {
      OnSiteFailure(site, status);
    };
    coordinator_io_ = std::make_unique<ReactorCoordinator>(k, io_options);

    if (!options_.external_sites) {
      site_status_.assign(static_cast<size_t>(k), Status::Ok());
      const int port = listener->port();
      // A wildcard bind still answers on loopback; a specific interface
      // address only answers there.
      const std::string host = options_.bind_address == "0.0.0.0"
                                   ? "127.0.0.1"
                                   : options_.bind_address;
      for (int s = 0; s < k; ++s) {
        RemoteSiteConfig site_config;
        site_config.site_id = s;
        site_config.host = host;
        site_config.port = port;
        site_config.seed = seeds_.site_seeds[static_cast<size_t>(s)];
        site_config.connect_timeout_ms = options_.site_connect_timeout_ms;
        site_config.heartbeat_interval_ms = options_.heartbeat_interval_ms;
        site_config.exact_mode = exact_mode();
        site_threads_.emplace_back([this, s, site_config] {
          site_status_[static_cast<size_t>(s)] =
              RunRemoteSite(network(), site_config).status();
        });
      }
    }

    const Status accepted = coordinator_io_->AcceptSites(&listener.value());
    if (!accepted.ok()) {
      // Close the listener BEFORE joining: a site parked in the accept
      // backlog only sees its connection die when the listening socket
      // goes away, and a site still retrying its connect runs out its
      // (bounded) timeout.
      listener->Close();
      coordinator_io_->Shutdown();
      JoinSiteThreads();
      return accepted;
    }

    std::vector<Channel<RoundAdvance>*> command_channels;
    for (int s = 0; s < k; ++s) {
      event_channels_.push_back(coordinator_io_->events(s));
      command_channels.push_back(coordinator_io_->commands(s));
    }
    StartCoordinator(coordinator_io_->updates(), std::move(command_channels));
    coordinator_started_.store(true, std::memory_order_release);
    // The board is live (reactor-fed) from here on.
    StartMetricsDump(options_.metrics_dump_ms, options_.metrics_dump_stream,
                     [this] { return Metrics(); });
    return Status::Ok();
  }

  StatusOr<RunReport> Finish() override {
    if (finished_.load(std::memory_order_acquire)) {
      return FailedPreconditionError("session: Finish called twice");
    }
    finished_.store(true, std::memory_order_release);
    const Status flushed = FlushAllShards();
    if (!flushed.ok()) {
      // A site vanished mid-run: tear everything down before reporting,
      // so the error return does not leak live threads and sockets.
      Abort();
      return WithPostmortem(flushed);
    }
    CloseEventChannels();
    JoinCoordinator();

    // Protocol finished (every live site acknowledged; command channels
    // closed). Each site now reports its exact totals for validation.
    std::vector<uint64_t> exact_totals(
        static_cast<size_t>(layout_->total_counters()), 0);
    const Status collected = CollectFinalCounts(&exact_totals);
    if (!collected.ok()) {
      Abort();
      return WithPostmortem(RunFailureOr(collected));
    }

    ClusterResult result;
    result.wall_seconds = wall_.ElapsedSeconds();
    // In external mode the sites are remote; "processed" is the accepted
    // stream length (the validation counts confirm delivery).
    result.events_processed = events_pushed();
    result.transport_measured = true;
    result.transport_bytes_up = coordinator_io_->bytes_up();
    result.transport_bytes_down = coordinator_io_->bytes_down();
    FinalizeClusterResult(*coordinator_, exact_totals, &result);

    // Closing the connections from our side releases the sites' post-final-
    // counts linger; only then are the in-process site threads joinable.
    coordinator_io_->Shutdown();
    JoinSiteThreads();
    // A failed site fails the run BEFORE the final model is published:
    // Snapshot() after a failed Finish must error, not present a model
    // validated against incomplete sites. A liveness failure recorded
    // during the final-counts window (rare, but a site can die between its
    // last sync and its final report) is surfaced the same way.
    const Status site_error = FirstSiteError();
    if (!site_error.ok()) return WithPostmortem(site_error);
    const Status failure = run_failure();
    if (!failure.ok()) return WithPostmortem(failure);

    // Capture metrics while the board still reflects the run, then stop
    // the dumper (its final line is this same end-of-run snapshot).
    RunReport report = ReportFromClusterResult(result, Backend::kLocalTcp);
    report.model = ViewFromCoordinator(result.events_processed);
    report.metrics = Metrics();
    report.model.AttachMetrics(report.metrics);
    StopMetricsDump();
    SetFinalView(report.model);
    if (!options_.trace_out.empty()) {
      // Observability output must never fail an otherwise-healthy run: a
      // write error leaves trace_path empty instead of erroring Finish.
      const Status written = WriteTextFile(
          options_.trace_out,
          TimelineToChromeJson(trace_board_->MergedClusterTimeline(),
                               trace_board_->OffsetsNanos()));
      if (written.ok()) report.trace_path = options_.trace_out;
    }
    report.postmortem_path = postmortem_path_;
    return report;
  }

 private:
  /// Alert rules ride the health cadence: every Metrics() poll — the dump
  /// thread's tick, or an explicit Metrics() call — scores the live board
  /// before it is spliced into the snapshot. The engine itself is
  /// single-threaded by contract, so concurrent pollers serialize here.
  void RefreshSiteHealth() const override {
    MutexLock lock(&alert_mu_);
    if (alert_engine_ == nullptr) return;
    const int64_t now = NowNanos();
    alert_engine_->Evaluate(health_board_.Snapshot(now), now);
  }

  /// The flight recorder: dumps the post-mortem bundle (once per session)
  /// and returns `reason` annotated with the bundle's path — Finish()
  /// returns no report on failure, so the path must travel in the status.
  /// A bundle write error changes nothing: observability output explains
  /// failures, it never replaces or causes them.
  Status WithPostmortem(Status reason) {
    if (options_.postmortem_dir.empty() || postmortem_written_) return reason;
    postmortem_written_ = true;
    FlightRecord record;
    record.failure_reason = reason.message();
    record.metrics = Metrics();
    record.timeline = trace_board_->MergedClusterTimeline();
    record.offsets_nanos = trace_board_->OffsetsNanos();
    for (int s = 0; s < num_sites_; ++s) {
      record.trace_events_lost += trace_board_->EventsLost(s);
    }
    const std::string path =
        options_.postmortem_dir + "/dsgm_postmortem.json";
    if (WriteTextFile(path, FlightRecordToJson(record)).ok()) {
      postmortem_path_ = path;
      return Status(reason.code(),
                    reason.message() + " (post-mortem: " + path + ")");
    }
    return reason;
  }

  /// Reactor-thread handler for a site declared dead (liveness timeout or
  /// mid-run disconnect) — the FailRun policy. Must not call
  /// ReactorCoordinator::Shutdown (it would join the thread running this).
  void OnSiteFailure(int site, const Status& status) {
    RecordRunFailure(status);
    // Cancel the dead site's outstanding syncs so the protocol state can
    // settle, then close the merged queue so the coordinator loop (and a
    // Finish() blocked collecting final counts) wakes up and observes the
    // failure instead of waiting for a reply that will never come.
    if (coordinator_started_.load(std::memory_order_acquire)) {
      coordinator_->CancelSite(site);
    }
    coordinator_io_->merged_updates()->Close();
  }

  Status CollectFinalCounts(std::vector<uint64_t>* exact_totals) {
    const int k = num_sites_;
    const int64_t total_counters = layout_->total_counters();
    std::vector<uint8_t> reported(static_cast<size_t>(k), 0);
    int final_reports = 0;
    std::vector<UpdateBundle> batch;
    Channel<UpdateBundle>* updates = coordinator_io_->updates();
    while (final_reports < k) {
      batch.clear();
      if (updates->PopBatch(&batch, 64) == 0) {
        // Closed and drained: every site's connection ended (or the run
        // failed) without all final counts arriving.
        return InternalError("a site disconnected before sending final counts");
      }
      for (UpdateBundle& bundle : batch) {
        // One report per distinct site: a duplicated or forged bundle must
        // not satisfy the wait while a real site's totals are missing.
        if (bundle.kind != UpdateBundle::Kind::kFinalCounts) continue;
        if (bundle.site < 0 || bundle.site >= k ||
            reported[static_cast<size_t>(bundle.site)]) {
          continue;
        }
        reported[static_cast<size_t>(bundle.site)] = 1;
        ++final_reports;
        for (const CounterReport& report : bundle.reports) {
          if (report.counter < 0 || report.counter >= total_counters) {
            return InvalidArgumentError(
                "final counts report an unknown counter id");
          }
          (*exact_totals)[static_cast<size_t>(report.counter)] += report.value;
        }
      }
    }
    return Status::Ok();
  }

  void JoinSiteThreads() {
    for (std::thread& thread : site_threads_) {
      if (thread.joinable()) thread.join();
    }
  }

  Status FirstSiteError() const {
    for (size_t s = 0; s < site_status_.size(); ++s) {
      if (!site_status_[s].ok()) {
        return InternalError("site " + std::to_string(s) +
                             " failed: " + site_status_[s].message());
      }
    }
    return Status::Ok();
  }

  /// Best-effort teardown for sessions dropped mid-run (or failed runs):
  /// stopping the reactor and shutting the connections down unblocks the
  /// site threads and the coordinator.
  void Abort() {
    StopMetricsDump();
    if (coordinator_io_ != nullptr) coordinator_io_->Shutdown();
    JoinCoordinator();
    JoinSiteThreads();
  }

  const SeedSchedule seeds_;
  /// Fed by the reactor I/O thread (trace chunks, skew samples); read by
  /// Finish's export and the flight recorder. Outlives the reactor.
  std::unique_ptr<ClusterTraceBoard> trace_board_;
  /// AlertEngine is single-threaded by contract; Metrics() is not.
  mutable Mutex alert_mu_;
  mutable std::unique_ptr<AlertEngine> alert_engine_
      DSGM_GUARDED_BY(alert_mu_);
  /// Where the flight recorder dumped, if it did. Finish-thread only.
  std::string postmortem_path_;
  bool postmortem_written_ = false;
  std::unique_ptr<ReactorCoordinator> coordinator_io_;
  /// OnSiteFailure can fire while Init is still accepting sites, before
  /// coordinator_ exists; it must not touch a null CoordinatorNode.
  std::atomic<bool> coordinator_started_{false};
  std::vector<std::thread> site_threads_;
  std::vector<Status> site_status_;
};

}  // namespace

StatusOr<std::unique_ptr<Session>> CreateLocalTcpSession(
    const BayesianNetwork& network, const SessionOptions& options) {
  auto session = std::unique_ptr<LocalTcpSession>(new LocalTcpSession(
      network, options, DeriveSeedSchedule(options.tracker)));
  DSGM_RETURN_IF_ERROR(session->Init());
  return std::unique_ptr<Session>(std::move(session));
}

}  // namespace internal
}  // namespace dsgm
