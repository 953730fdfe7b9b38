#include "cluster/remote_runner.h"

#include <chrono>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "cluster/site_node.h"
#include "net/codec.h"
#include "net/tcp_socket.h"
#include "net/tcp_transport.h"

namespace dsgm {
namespace {

/// Latest coordinator heartbeat echo: written by the connection's reader
/// thread (TcpConnection::Options::on_heartbeat), read by the heartbeat
/// sender when it builds the next beat. Closing the NTP timestamp loop is
/// the only coupling between the two threads, hence the dedicated mutex.
struct EchoBox {
  Mutex mu;
  /// The echo's send_nanos (coordinator clock); 0 until the first echo.
  int64_t echo_nanos DSGM_GUARDED_BY(mu) = 0;
  /// Local clock when that echo arrived.
  int64_t echo_recv_nanos DSGM_GUARDED_BY(mu) = 0;
};

/// Sends kHeartbeat frames on a fixed cadence until stopped (or until the
/// connection breaks). Runs beside the SiteNode thread so liveness evidence
/// flows even while the site is parked in a blocking push or pop.
///
/// Each heartbeat piggybacks a kStatsReport frame sampled from `stats` (when
/// provided) — the coordinator's health table rides the liveness cadence for
/// free, no extra timer and no extra wakeups on either end. With
/// `ship_traces`, an incremental kTraceChunk drain of this process's trace
/// rings rides the same cadence (loss-tolerant: the drain cursor accounts
/// for ring overwrite, and the coordinator reads gaps from the sequence
/// numbers).
class HeartbeatSender {
 public:
  using StatsFn = std::function<SiteStatsReport()>;

  HeartbeatSender(TcpConnection* connection, int site_id, int interval_ms,
                  StatsFn stats, EchoBox* echo, bool ship_traces) {
    if (interval_ms <= 0) return;
    thread_ = std::thread([this, connection, site_id, interval_ms,
                           stats = std::move(stats), echo, ship_traces] {
      uint64_t heartbeats_sent = 0;
      TraceDrainCursor cursor;
      MutexLock lock(&mu_);
      while (!stop_) {
        // A spurious or racing wakeup before the interval elapses just
        // sends the heartbeat a little early — harmless, so no need to
        // re-arm the timed wait in an inner loop.
        cv_.WaitFor(&lock, std::chrono::milliseconds(interval_ms));
        if (stop_) break;
        lock.Unlock();
        HeartbeatTimestamps hb;
        if (echo != nullptr) {
          MutexLock echo_lock(&echo->mu);
          hb.echo_nanos = echo->echo_nanos;
          hb.echo_recv_nanos = echo->echo_recv_nanos;
        }
        hb.send_nanos = NowNanos();
        // Recorded before the drain below, so the beat's own trace event
        // ships in the chunk that rides it — the coordinator's post-mortem
        // of a dead site ends with that site's final heartbeat.
        Trace(TraceEventType::kHeartbeat, site_id,
              static_cast<int64_t>(heartbeats_sent + 1));
        bool sent = connection->SendFrame(MakeHeartbeat(site_id, hb));
        if (sent) {
          ++heartbeats_sent;
          if (stats) {
            SiteStatsReport report = stats();
            report.site = site_id;
            report.heartbeats_sent = heartbeats_sent;
            sent = connection->SendFrame(MakeStatsReport(report));
          }
        }
        if (sent && ship_traces) {
          TraceChunk chunk;
          chunk.site = site_id;
          if (DrainTraceEvents(&cursor, &chunk.events, &chunk.first_seq) > 0) {
            sent = connection->SendFrame(MakeTraceChunk(std::move(chunk)));
          }
        }
        lock.Lock();
        if (!sent) break;  // Peer gone; nothing left to prove alive to.
      }
    });
  }

  ~HeartbeatSender() { Stop(); }

  void Stop() DSGM_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    if (thread_.joinable()) thread_.join();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool stop_ DSGM_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace

StatusOr<RemoteSiteResult> RunRemoteSite(const BayesianNetwork& network,
                                         const RemoteSiteConfig& config) {
  if (config.site_id < 0) return InvalidArgumentError("site_id must be >= 0");

  // The coordinator may still be booting; retry the connect until the
  // timeout budget runs out.
  const int64_t deadline_nanos =
      NowNanos() + static_cast<int64_t>(config.connect_timeout_ms) * 1000000;
  StatusOr<TcpSocket> socket = TcpSocket::Connect(config.host, config.port);
  while (!socket.ok() && NowNanos() < deadline_nanos) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    socket = TcpSocket::Connect(config.host, config.port);
  }
  if (!socket.ok()) return socket.status();

  EchoBox echo;
  TcpConnection::Options options;
  options.on_heartbeat = [&echo](const HeartbeatTimestamps& frame_hb,
                                 int64_t recv_nanos) {
    MutexLock lock(&echo.mu);
    echo.echo_nanos = frame_hb.send_nanos;
    echo.echo_recv_nanos = recv_nanos;
  };
  TcpConnection connection(std::move(socket).value(), options);
  DSGM_RETURN_IF_ERROR(connection.SendHello(config.site_id));
  connection.Start();

  SiteNode site(config.site_id, network, config.seed, connection.events(),
                connection.commands(), connection.updates(), config.exact_mode);
  // The sender samples the node's relaxed stats atomics; safe while Run()
  // is live, and the sender is stopped before `site` leaves scope. The
  // echo box is written by the connection's reader thread, which Shutdown()
  // joins before either outlives this frame.
  HeartbeatSender heartbeats(&connection, config.site_id,
                             config.heartbeat_interval_ms,
                             [&site] { return site.StatsReport(); }, &echo,
                             config.ship_traces);
  site.Run();

  // Protocol finished; report exact totals so the coordinator can validate
  // its estimates. Zero counters are implicit.
  UpdateBundle final_counts;
  final_counts.kind = UpdateBundle::Kind::kFinalCounts;
  final_counts.site = config.site_id;
  const std::vector<uint32_t>& counts = site.local_counts();
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] != 0) {
      final_counts.reports.push_back(
          CounterReport{static_cast<int64_t>(c), counts[c]});
    }
  }
  if (!connection.updates()->Push(std::move(final_counts))) {
    return InternalError("coordinator vanished before the final counts report");
  }

  // Linger until the coordinator closes the connection (bounded): the
  // coordinator's liveness policy treats any mid-run EOF as a site failure,
  // so the site must not be the one to hang up while the coordinator is
  // still collecting final counts from its peers. Heartbeats keep flowing
  // through the wait.
  const int64_t linger_deadline_nanos =
      NowNanos() + static_cast<int64_t>(config.shutdown_linger_ms) * 1000000;
  while (!connection.finished() && NowNanos() < linger_deadline_nanos) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  heartbeats.Stop();
  connection.Shutdown();

  RemoteSiteResult result;
  result.events_processed = site.events_processed();
  return result;
}

}  // namespace dsgm
