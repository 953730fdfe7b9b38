#include "cluster/coordinator_node.h"

#include <algorithm>

#include "common/check.h"
#include "common/timer.h"
#include "monitor/round_schedule.h"

namespace dsgm {
namespace {

// Codec-calibrated wire payloads, matching monitor/approx_counter.cc (the
// constants live in monitor/comm_stats.h; tests/codec_test.cc verifies them
// against actually encoded frames).
constexpr uint64_t kUpdateBytes = kEstimatedUpdateBytes;
constexpr uint64_t kBroadcastBytes = kEstimatedBroadcastBytes;
constexpr uint64_t kSyncBytes = kEstimatedSyncBytes;

// Publish cadence under load: every batch would be freshest, but in exact
// mode nearly every report dirties a cell, so publishing per batch costs a
// second write of most of the update volume (~15% throughput on the Fig. 8
// bench). Amortizing over a few batches keeps snapshots sub-millisecond
// stale at full rate; the pre-block publish in Run keeps them EXACT
// whenever the stream goes quiet. A pop of per-event bundles carries at
// most 64 events, but a pop of coalesced exact-mode bundles can carry
// thousands, so a report bound caps the staleness too. It sits just above
// the 37,888 reports that 8 full pops of per-event ALARM bundles carry:
// per-event runs keep the pop cadence, and coalesced bundles publish about
// every 550 ALARM events, as per-event ones do every 512.
constexpr int kPublishEveryBatches = 8;
constexpr size_t kPublishEveryReports = size_t{40} << 10;

}  // namespace

CoordinatorNode::CoordinatorNode(std::vector<float> epsilons, int64_t num_counters,
                                 int num_sites, double probability_constant,
                                 Channel<UpdateBundle>* from_sites,
                                 std::vector<Channel<RoundAdvance>*> commands)
    : num_counters_(num_counters),
      num_sites_(num_sites),
      safety_(probability_constant),
      exact_mode_(epsilons.empty()),
      from_sites_(from_sites),
      commands_(std::move(commands)),
      epsilons_(std::move(epsilons)),
      rounds_advanced_metric_(
          MetricsRegistry::Global().GetCounter("cluster.coord.rounds_advanced")),
      publishes_metric_(
          MetricsRegistry::Global().GetCounter("cluster.coord.publishes")),
      publish_deferred_metric_(
          MetricsRegistry::Global().GetCounter("cluster.coord.publish_deferred")),
      publish_ns_metric_(
          MetricsRegistry::Global().GetHistogram("cluster.coord.publish_ns")),
      outstanding_syncs_gauge_(
          MetricsRegistry::Global().GetGauge("cluster.coord.outstanding_syncs")),
      bytes_up_gauge_(MetricsRegistry::Global().GetGauge("cluster.comm.bytes_up")),
      bytes_down_gauge_(
          MetricsRegistry::Global().GetGauge("cluster.comm.bytes_down")),
      wire_messages_gauge_(
          MetricsRegistry::Global().GetGauge("cluster.comm.wire_messages")),
      update_messages_gauge_(
          MetricsRegistry::Global().GetGauge("cluster.comm.update_messages")),
      sync_messages_gauge_(
          MetricsRegistry::Global().GetGauge("cluster.comm.sync_messages")),
      broadcast_messages_gauge_(
          MetricsRegistry::Global().GetGauge("cluster.comm.broadcast_messages")) {
  DSGM_CHECK_EQ(static_cast<int>(commands_.size()), num_sites_);
  if (!exact_mode_) {
    DSGM_CHECK_EQ(static_cast<int64_t>(epsilons_.size()), num_counters_);
  }
  const size_t n = static_cast<size_t>(num_counters_);
  probs_.assign(n, 1.0f);
  estimates_.assign(n, 0.0);
  thresholds_.assign(n, RoundThreshold(0));
  rounds_.assign(n, 0);
  sync_pending_.assign(n, 0);
  sync_counts_.assign(n * static_cast<size_t>(num_sites_), 0);
  best_reports_.assign(n * static_cast<size_t>(num_sites_), 0);
  sync_owed_.assign(n * static_cast<size_t>(num_sites_), 0);
  site_done_.assign(static_cast<size_t>(num_sites_), 0);
  site_dead_.assign(static_cast<size_t>(num_sites_), 0);
  published_[0].estimates.assign(n, 0.0);
  published_[1].estimates.assign(n, 0.0);
  publish_dirty_.assign(n, 0);
}

void CoordinatorNode::TouchEstimate(size_t counter) {
  if (!publish_tracking_) return;
  uint8_t& dirty = publish_dirty_[counter];
  if (!(dirty & 1)) {
    dirty |= 1;
    publish_pending_[0].push_back(static_cast<int64_t>(counter));
  }
  if (!(dirty & 2)) {
    dirty |= 2;
    publish_pending_[1].push_back(static_cast<int64_t>(counter));
  }
}

void CoordinatorNode::ActivatePublication() {
  const size_t n = static_cast<size_t>(num_counters_);
  publish_dirty_.assign(n, 3);
  publish_pending_[0].resize(n);
  publish_pending_[1].resize(n);
  for (size_t c = 0; c < n; ++c) {
    publish_pending_[0][c] = static_cast<int64_t>(c);
    publish_pending_[1][c] = static_cast<int64_t>(c);
  }
  publish_tracking_ = true;
}

void CoordinatorNode::MaybePublish(bool force) {
  const int state = publish_state_.load(std::memory_order_acquire);
  if (state == 0) {
    // Nobody has ever queried; keep the path free.
    batches_since_publish_ = 0;
    reports_since_publish_ = 0;
    return;
  }
  if (!publish_tracking_) ActivatePublication();
  if (state == 1 || force || batches_since_publish_ >= kPublishEveryBatches ||
      reports_since_publish_ >= kPublishEveryReports) {
    // Forced publishes (about to block on an empty queue) must land: a
    // skipped one would leave the buffers stale for as long as the stream
    // stays quiet, breaking the quiet-stream-snapshots-are-exact promise.
    // Cadence publishes may be deferred by a laggard reader — then the
    // cells stay dirty, the saturated counter retries on the very next
    // batch, and readers stay off the stale buffers (state stays 1 on the
    // activation path).
    if (PublishSnapshot(/*wait=*/force)) {
      publish_state_.store(2, std::memory_order_release);
      batches_since_publish_ = 0;
      reports_since_publish_ = 0;
    }
  }
}

bool CoordinatorNode::PublishSnapshot(bool wait) {
  const int back = published_front_.load(std::memory_order_relaxed) ^ 1;
  PublishedState& state = published_[back];
  if (!state.mu.TryLock()) {
    // A reader is copying this buffer (it loaded the front index just
    // before we flipped it last time). On a cadence publish we simply
    // defer — the caller keeps the cells dirty and retries next batch — so
    // a fast poller can never block the protocol loop. Pre-block and at
    // Run exit we must land the state, and the reader's copy is bounded,
    // so a blocking acquisition is fine (Run has nothing else to do then
    // anyway).
    if (!wait) {
      publish_deferred_metric_->Increment();
      Trace(TraceEventType::kSnapshotDefer, -1, 0);
      return false;
    }
    state.mu.Lock();
  }
  const int64_t publish_start = NowNanos();
  for (const int64_t counter : publish_pending_[back]) {
    state.estimates[static_cast<size_t>(counter)] =
        estimates_[static_cast<size_t>(counter)];
    publish_dirty_[static_cast<size_t>(counter)] &=
        static_cast<uint8_t>(~(1u << back));
  }
  publish_pending_[back].clear();
  state.comm = comm_;
  state.mu.Unlock();
  published_front_.store(back, std::memory_order_release);
  publishes_metric_->Increment();
  publish_ns_metric_->Record(static_cast<uint64_t>(NowNanos() - publish_start));
  Trace(TraceEventType::kSnapshotPublish, -1,
        static_cast<int64_t>(publishes_metric_->Value()));
  return true;
}

double CoordinatorNode::SiteEstimate(size_t cell, double p) const {
  const uint32_t sync = sync_counts_[cell];
  const uint32_t best = best_reports_[cell];
  if (best <= sync) return static_cast<double>(sync);
  return static_cast<double>(best) + (1.0 / p - 1.0);
}

void CoordinatorNode::OnReport(int site, const CounterReport& report) {
  const size_t c = static_cast<size_t>(report.counter);
  const size_t cell = c * static_cast<size_t>(num_sites_) + site;
  const double p = probs_[c];
  const double before = SiteEstimate(cell, p);
  if (report.value > std::max(best_reports_[cell], sync_counts_[cell])) {
    best_reports_[cell] = report.value;
  }
  const double delta = SiteEstimate(cell, p) - before;
  if (delta != 0.0) {
    estimates_[c] += delta;
    TouchEstimate(c);
  }
  if (!exact_mode_) MaybeAdvance(report.counter);
}

void CoordinatorNode::OnSync(int site, const CounterReport& report) {
  const size_t c = static_cast<size_t>(report.counter);
  const size_t cell = c * static_cast<size_t>(num_sites_) + site;
  const double p = probs_[c];
  const double before = SiteEstimate(cell, p);
  sync_counts_[cell] = std::max(sync_counts_[cell], report.value);
  // A sync settles this round's state: reports older than the sync carry no
  // information beyond it.
  best_reports_[cell] = std::max(best_reports_[cell], sync_counts_[cell]);
  const double delta = SiteEstimate(cell, p) - before;
  if (delta != 0.0) {
    estimates_[c] += delta;
    TouchEstimate(c);
  }
  // Count the reply against the round only while THIS site actually owes
  // one for this counter: an unsolicited (forged or duplicate) sync must
  // not drive outstanding_syncs_ negative — which would keep Run's exit
  // condition false forever — nor consume another site's pending slot.
  // Invariant: outstanding_syncs_ == sum(sync_pending_) == sum(sync_owed_).
  if (sync_owed_[cell] && sync_pending_[c] > 0) {
    sync_owed_[cell] = 0;
    --outstanding_syncs_;
    if (--sync_pending_[c] == 0) MaybeAdvance(report.counter);
  }
}

void CoordinatorNode::CancelSite(int site) {
  MutexLock lock(&mu_);
  if (site < 0 || site >= num_sites_) return;
  const size_t s = static_cast<size_t>(site);
  if (site_dead_[s]) return;
  site_dead_[s] = 1;
  ++dead_sites_;
  Trace(TraceEventType::kSiteCancelled, site, 0);
  if (!site_done_[s]) {
    site_done_[s] = 1;
    ++done_sites_;
  }
  // Forgive every sync reply the site still owes. MaybeAdvance is NOT
  // re-entered here: the run is being failed by the caller's policy, and
  // advancing rounds against a shrinking quorum would only send commands
  // nobody needs.
  for (size_t c = 0; c < static_cast<size_t>(num_counters_); ++c) {
    const size_t cell = c * static_cast<size_t>(num_sites_) + s;
    if (sync_owed_[cell] && sync_pending_[c] > 0) {
      sync_owed_[cell] = 0;
      --sync_pending_[c];
      --outstanding_syncs_;
    }
  }
}

void CoordinatorNode::MaybeAdvance(int64_t counter) {
  const size_t c = static_cast<size_t>(counter);
  if (sync_pending_[c] > 0) return;  // Wait for the current round to settle.
  if (estimates_[c] < thresholds_[c]) return;

  int round = rounds_[c];
  while (estimates_[c] >= RoundThreshold(round) && round < kMaxRound) ++round;
  const double new_p = RoundProbability(epsilons_[c], round, num_sites_, safety_);
  rounds_[c] = static_cast<uint8_t>(round);
  thresholds_[c] = RoundThreshold(round);
  if (new_p >= 1.0) {
    probs_[c] = 1.0f;  // Still exact; transition is silent.
    return;
  }
  probs_[c] = static_cast<float>(new_p);
  ++comm_.rounds_advanced;
  rounds_advanced_metric_->Increment();
  Trace(TraceEventType::kRoundAdvance, -1, counter);
  // Only sites that can still answer owe a sync; a cancelled (dead) site
  // would otherwise re-wedge outstanding_syncs_ forever.
  const int alive = num_sites_ - dead_sites_;
  sync_pending_[c] = alive;
  outstanding_syncs_ += alive;
  comm_.broadcast_messages += static_cast<uint64_t>(alive);
  comm_.wire_messages += static_cast<uint64_t>(alive);
  comm_.bytes_down += kBroadcastBytes * static_cast<uint64_t>(alive);
  for (int s = 0; s < num_sites_; ++s) {
    if (site_dead_[static_cast<size_t>(s)]) continue;
    sync_owed_[c * static_cast<size_t>(num_sites_) + static_cast<size_t>(s)] = 1;
    RoundAdvance advance;
    advance.counter = counter;
    advance.round = round;
    advance.probability = static_cast<float>(new_p);
    commands_[static_cast<size_t>(s)]->Push(advance);
  }
}

void CoordinatorNode::Run() {
  std::vector<UpdateBundle> batch;
  while (true) {
    {
      // Under the lock: CancelSite mutates done/outstanding from the
      // transport's liveness thread while this loop is live.
      MutexLock lock(&mu_);
      if (done_sites_ == num_sites_ && outstanding_syncs_ == 0) break;
    }
    batch.clear();
    size_t got = from_sites_->TryPopBatch(&batch, 64);
    if (got == 0) {
      // About to block: land the pending cells first, so a snapshot taken
      // while the sites are idle reflects everything received. The pops
      // themselves stay OUTSIDE mu_: holding it across a blocking PopBatch
      // would deadlock CancelSite — which is exactly what un-wedges a
      // dead-site run.
      {
        MutexLock lock(&mu_);
        MaybePublish(/*force=*/true);
      }
      got = from_sites_->PopBatch(&batch, 64);
      if (got == 0) break;  // Queue closed: all readers gone or run failed.
    }
    const int64_t now_nanos = NowNanos();
    {
      MutexLock lock(&mu_);
      if (!saw_message_) {
        first_message_nanos_ = now_nanos;
        saw_message_ = true;
      }
      last_message_nanos_ = now_nanos;
      for (const UpdateBundle& bundle : batch) {
        // Bundles can arrive from a real network peer; ids must be
        // validated before they index protocol state (a forged site/counter
        // would be an out-of-bounds write, not just a bad estimate).
        const bool site_ok = bundle.site >= 0 && bundle.site < num_sites_;
        switch (bundle.kind) {
          case UpdateBundle::Kind::kReports:
            ++comm_.wire_messages;
            comm_.update_messages += bundle.reports.size();
            comm_.bytes_up += kUpdateBytes * bundle.reports.size();
            reports_since_publish_ += bundle.reports.size();
            if (!site_ok) break;
            for (const CounterReport& report : bundle.reports) {
              if (report.counter < 0 || report.counter >= num_counters_) continue;
              OnReport(bundle.site, report);
            }
            break;
          case UpdateBundle::Kind::kSync:
            ++comm_.wire_messages;
            comm_.sync_messages += bundle.reports.size();
            comm_.bytes_up += kSyncBytes * bundle.reports.size();
            reports_since_publish_ += bundle.reports.size();
            Trace(TraceEventType::kSyncMessage, bundle.site,
                  static_cast<int64_t>(bundle.reports.size()));
            if (!site_ok) break;
            for (const CounterReport& report : bundle.reports) {
              if (report.counter < 0 || report.counter >= num_counters_) continue;
              OnSync(bundle.site, report);
            }
            break;
          case UpdateBundle::Kind::kSiteDone:
            // One done per real site: a forged or repeated marker must not
            // end the run while genuine sites are still streaming.
            if (site_ok && !site_done_[static_cast<size_t>(bundle.site)]) {
              site_done_[static_cast<size_t>(bundle.site)] = 1;
              ++done_sites_;
            }
            break;
          case UpdateBundle::Kind::kFinalCounts:
            // Validation frames for the multi-process driver; they are sent
            // only after the protocol finished, so Run never sees one.
            // Ignore defensively.
            break;
        }
        if (reports_since_publish_ >= kPublishEveryReports) {
          MaybePublish(/*force=*/false);
        }
      }
      // Publishing happens under mu_ (it reads estimates_/comm_), but
      // steady-state snapshot readers synchronize on the BUFFER locks, so a
      // poller still never delays the next PopBatch. State 0 (nobody ever
      // queried) skips publication entirely; state 1 (first query just
      // arrived) publishes immediately and moves readers onto the buffers.
      ++batches_since_publish_;
      MaybePublish(/*force=*/false);
      // Mirror the comm totals into the registry at batch granularity: a
      // handful of gauge stores per ≤64 bundles, invisible next to the
      // protocol work, and a metrics dump needs no access to this node.
      outstanding_syncs_gauge_->Set(outstanding_syncs_);
      bytes_up_gauge_->Set(static_cast<int64_t>(comm_.bytes_up));
      bytes_down_gauge_->Set(static_cast<int64_t>(comm_.bytes_down));
      wire_messages_gauge_->Set(static_cast<int64_t>(comm_.wire_messages));
      update_messages_gauge_->Set(static_cast<int64_t>(comm_.update_messages));
      sync_messages_gauge_->Set(static_cast<int64_t>(comm_.sync_messages));
      broadcast_messages_gauge_->Set(
          static_cast<int64_t>(comm_.broadcast_messages));
    }
  }
  {
    // Land the final state even if a reader momentarily holds the back
    // buffer: post-join accessors and the session's final model read the
    // published front. A run nobody queried keeps skipping (post-join
    // readers are served from the live state).
    MutexLock lock(&mu_);
    if (publish_state_.load(std::memory_order_acquire) != 0) {
      if (!publish_tracking_) ActivatePublication();
      PublishSnapshot(/*wait=*/true);
      publish_state_.store(2, std::memory_order_release);
    }
  }
  for (Channel<RoundAdvance>* channel : commands_) channel->Close();
}

void CoordinatorNode::SnapshotState(std::vector<double>* estimates,
                                    CommStats* comm) const {
  if (publish_state_.load(std::memory_order_acquire) != 2) {
    // No published state yet (first query, or Run already exited without
    // one): request activation and serve this query from the live state
    // under the protocol lock — the pre-publication behavior. Run flips to
    // state 2 with its next publish; until then the buffers may be stale,
    // so every reader stays on this path.
    int expected = 0;
    publish_state_.compare_exchange_strong(expected, 1,
                                           std::memory_order_acq_rel);
    MutexLock lock(&mu_);
    *estimates = estimates_;
    if (comm != nullptr) *comm = comm_;
    return;
  }
  const int front = published_front_.load(std::memory_order_acquire);
  PublishedState& state = published_[front];
  MutexLock lock(&state.mu);
  // If the front flipped between the load and the lock, this buffer is now
  // the back: holding its mutex makes the writer's try_lock fail (it skips
  // that publish), so the copy is still a complete, consistent published
  // state — at most one publish stale.
  *estimates = state.estimates;
  if (comm != nullptr) *comm = state.comm;
}

double CoordinatorNode::ActiveSeconds() const {
  MutexLock lock(&mu_);
  if (!saw_message_) return 0.0;
  return static_cast<double>(last_message_nanos_ - first_message_nanos_) * 1e-9;
}

}  // namespace dsgm
