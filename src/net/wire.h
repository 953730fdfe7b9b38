// Wire messages exchanged between cluster nodes.
//
// The threaded cluster speaks the same counter protocol as the synchronous
// simulation (monitor/round_schedule.h documents the rounds); these are the
// concrete message frames. Site->coordinator traffic is bundled, the
// optimization described in the paper's Section VI-A: with rounds
// (approximate mode) a kReports bundle carries the reports of one event;
// in exact mode, which has no rounds, it carries those of a whole
// EventBatch, split every 4096 reports (cluster/site_node.h).

#ifndef DSGM_NET_WIRE_H_
#define DSGM_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/metrics.h"

namespace dsgm {

/// One counter report inside an UpdateBundle: the site's cumulative local
/// count of `counter` at the moment of reporting.
struct CounterReport {
  int64_t counter = 0;
  uint32_t value = 0;
};

/// Site -> coordinator frame.
struct UpdateBundle {
  enum class Kind : uint8_t {
    kReports,      // sampled counter reports of one event (of many
                   // events in exact mode; see the file comment)
    kSync,         // exact counts replying to a round advance
    kSiteDone,     // the site has processed its whole stream
    kFinalCounts,  // exact per-counter totals, sent after protocol shutdown
                   // so a remote coordinator can validate its estimates
  };
  Kind kind = Kind::kReports;
  int32_t site = -1;
  /// Round the sync replies to (kSync only); stale replies are harmless
  /// because reports carry cumulative counts.
  int32_t round = -1;
  std::vector<CounterReport> reports;
};

/// Site->coordinator queues bound the CounterReports they hold as well as
/// the bundles (common/queue.h QueueWeight): one exact-mode bundle can
/// carry thousands of reports.
inline size_t QueueWeight(const UpdateBundle& bundle) {
  return bundle.reports.size();
}

/// Coordinator -> site frame: counter `counter` enters `round` with
/// reporting probability `probability`; the site must reply with a sync.
struct RoundAdvance {
  int64_t counter = 0;
  int32_t round = 0;
  float probability = 1.0f;
};

/// Stream events are dispatched to sites as batches of instances, flattened
/// into one values array (num_vars values per event).
struct EventBatch {
  int32_t num_events = 0;
  std::vector<int32_t> values;
};

/// Site -> coordinator observability frame, piggybacked on the heartbeat
/// cadence: cumulative counters the coordinator folds into its live
/// per-site health table (common/metrics.h SiteHealthBoard). All fields are
/// totals since the site started, so a lost report costs nothing.
struct SiteStatsReport {
  int32_t site = -1;
  int64_t events_processed = 0;
  uint64_t updates_sent = 0;
  uint64_t syncs_sent = 0;
  uint64_t rounds_seen = 0;
  uint64_t heartbeats_sent = 0;
};

/// Heartbeat timing payload (protocol v4). Heartbeats carry three clock
/// samples so the coordinator can estimate each site's clock offset with
/// the NTP four-timestamp method, closed over two legs: the coordinator
/// echoes every site heartbeat (stamping `send_nanos` with its own clock),
/// and the site's NEXT heartbeat carries that echo back together with its
/// own receive time. The fourth timestamp — when this heartbeat reached
/// the coordinator — is measured locally at delivery, never trusted from
/// the wire. Zeros mean "no sample yet" (v4 sites before their first echo
/// round-trip completes).
struct HeartbeatTimestamps {
  /// Sender's clock at the moment this frame was built.
  int64_t send_nanos = 0;
  /// Site->coordinator only: the coordinator clock stamped into the last
  /// echo this site received (the echo's send_nanos, reflected back).
  int64_t echo_nanos = 0;
  /// Site->coordinator only: the site clock when that echo arrived.
  int64_t echo_recv_nanos = 0;
};

/// Site -> coordinator observability frame (protocol v4), piggybacked on
/// the heartbeat cadence like kStatsReport: an incremental drain of the
/// site's per-thread TraceRings. `first_seq` is the site-local sequence
/// number of events[0]; the cursor is monotone, so the coordinator can
/// account for events lost to ring overwrite (gaps) without any
/// retransmission — chunks are loss-tolerant by construction.
struct TraceChunk {
  int32_t site = -1;
  uint64_t first_seq = 0;
  std::vector<TraceEvent> events;
};

// Structural equality, used by the codec round-trip and transport
// conformance tests.
inline bool operator==(const CounterReport& a, const CounterReport& b) {
  return a.counter == b.counter && a.value == b.value;
}
inline bool operator==(const UpdateBundle& a, const UpdateBundle& b) {
  return a.kind == b.kind && a.site == b.site && a.round == b.round &&
         a.reports == b.reports;
}
inline bool operator==(const RoundAdvance& a, const RoundAdvance& b) {
  return a.counter == b.counter && a.round == b.round &&
         a.probability == b.probability;
}
inline bool operator==(const EventBatch& a, const EventBatch& b) {
  return a.num_events == b.num_events && a.values == b.values;
}
inline bool operator==(const SiteStatsReport& a, const SiteStatsReport& b) {
  return a.site == b.site && a.events_processed == b.events_processed &&
         a.updates_sent == b.updates_sent && a.syncs_sent == b.syncs_sent &&
         a.rounds_seen == b.rounds_seen &&
         a.heartbeats_sent == b.heartbeats_sent;
}
inline bool operator==(const HeartbeatTimestamps& a,
                       const HeartbeatTimestamps& b) {
  return a.send_nanos == b.send_nanos && a.echo_nanos == b.echo_nanos &&
         a.echo_recv_nanos == b.echo_recv_nanos;
}
inline bool operator==(const TraceChunk& a, const TraceChunk& b) {
  if (a.site != b.site || a.first_seq != b.first_seq ||
      a.events.size() != b.events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.events.size(); ++i) {
    if (!(a.events[i] == b.events[i])) return false;
  }
  return true;
}

}  // namespace dsgm

#endif  // DSGM_NET_WIRE_H_
