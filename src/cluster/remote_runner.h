// The multi-process cluster roles: one coordinator process and k site
// processes talking localhost (or LAN) TCP through net/.
//
//   RunRemoteSite — the site side: connects (with retry while the
//     coordinator boots), announces its site id and protocol version, runs
//     the SiteNode while a background thread sends kHeartbeat liveness
//     beacons, then reports final counts and lingers until the coordinator
//     closes the connection. The public ServeSite()
//     (include/dsgm/site_service.h) is a thin alias over this.
//
// The coordinator side is the Session API (Backend::kLocalTcp +
// WithExternalSites) — it runs the reactor transport with per-site
// liveness; see src/api/tcp_session.cc.

#ifndef DSGM_CLUSTER_REMOTE_RUNNER_H_
#define DSGM_CLUSTER_REMOTE_RUNNER_H_

#include <cstdint>
#include <string>

#include "bayes/network.h"
#include "common/status.h"

namespace dsgm {

struct RemoteSiteConfig {
  int site_id = 0;
  std::string host = "127.0.0.1";
  int port = 0;
  /// Seed for the site's Bernoulli reporting decisions.
  uint64_t seed = 7;
  /// How long to keep retrying the initial connect while the coordinator
  /// is still starting up.
  int connect_timeout_ms = 10000;
  /// kHeartbeat cadence, feeding the coordinator's liveness deadline (its
  /// default timeout is 5000 ms — keep interval well below the timeout).
  /// 0 disables heartbeats (the coordinator will declare the site dead
  /// unless its liveness is disabled too).
  int heartbeat_interval_ms = 500;
  /// After reporting final counts, how long to wait for the coordinator to
  /// close the connection before giving up. Lingering (instead of closing
  /// immediately) is what lets the coordinator treat ANY mid-run EOF as a
  /// site failure.
  int shutdown_linger_ms = 30000;
  /// Ship this process's trace rings to the coordinator in kTraceChunk
  /// frames on the heartbeat cadence. True only for standalone site
  /// processes (ServeSite): a kLocalTcp in-process site shares the
  /// coordinator's trace log already, and shipping would duplicate every
  /// event on the merged timeline.
  bool ship_traces = false;
  /// The run is exact (no rounds), so the site bundles its reports per
  /// EventBatch instead of per event (see SiteNode). Set only for kLocalTcp
  /// in-process sites, whose session knows the mode; ServeSite leaves it
  /// false, as the handshake does not announce the mode.
  bool exact_mode = false;
};

struct RemoteSiteResult {
  int64_t events_processed = 0;
};

/// Runs one site process's lifetime against a remote coordinator.
StatusOr<RemoteSiteResult> RunRemoteSite(const BayesianNetwork& network,
                                         const RemoteSiteConfig& config);

}  // namespace dsgm

#endif  // DSGM_CLUSTER_REMOTE_RUNNER_H_
