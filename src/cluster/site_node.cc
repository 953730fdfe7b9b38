#include "cluster/site_node.h"

#include "common/check.h"

namespace dsgm {

SiteNode::SiteNode(int site_id, const BayesianNetwork& network, uint64_t seed,
                   Channel<EventBatch>* events, Channel<RoundAdvance>* commands,
                   Channel<UpdateBundle>* to_coordinator, bool exact_mode)
    : site_id_(site_id),
      network_(&network),
      rng_(seed),
      events_(events),
      commands_(commands),
      to_coordinator_(to_coordinator),
      exact_mode_(exact_mode),
      layout_(network) {
  local_counts_.assign(static_cast<size_t>(layout_.total_counters()), 0);
  probs_.assign(static_cast<size_t>(layout_.total_counters()), 1.0f);
  // Hot-path buffers sized once: an event reports at most two counters per
  // variable (an exact-mode outbox is flushed after the event that takes it
  // to kMaxBundleReports), and DrainCommands pops at most kCommandPopBatch
  // commands.
  const size_t per_event = 2 * static_cast<size_t>(layout_.num_vars);
  outbox_.reserve(exact_mode_ ? kMaxBundleReports + per_event : per_event);
  command_buffer_.reserve(kCommandPopBatch);
}

void SiteNode::ProcessEvent(const int32_t* values) {
  auto increment = [this](int64_t counter) {
    const uint32_t local = ++local_counts_[static_cast<size_t>(counter)];
    const float p = probs_[static_cast<size_t>(counter)];
    if (p >= 1.0f || rng_.NextBernoulli(p)) {
      outbox_.push_back(CounterReport{counter, local});
    }
  };
  for (int i = 0; i < layout_.num_vars; ++i) {
    const int64_t row = layout_.ParentRowOf(i, values);
    increment(layout_.JointId(i, row, values[i]));
    increment(layout_.ParentId(i, row));
  }
  events_processed_.fetch_add(1, std::memory_order_relaxed);
  if (!exact_mode_ || outbox_.size() >= kMaxBundleReports) FlushReports();
}

void SiteNode::FlushReports() {
  if (outbox_.empty()) return;
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kReports;
  bundle.site = site_id_;
  // A copy, not a move: the bundle gets an exactly sized buffer and
  // outbox_ keeps its reserved one.
  bundle.reports = outbox_;
  updates_sent_.fetch_add(outbox_.size(), std::memory_order_relaxed);
  outbox_.clear();
  to_coordinator_->Push(std::move(bundle));
}

void SiteNode::DrainCommands(bool block_until_closed) {
  std::vector<RoundAdvance>& commands = command_buffer_;
  while (true) {
    commands.clear();
    size_t got = block_until_closed
                     ? commands_->PopBatch(&commands, kCommandPopBatch)
                     : commands_->TryPopBatch(&commands, kCommandPopBatch);
    if (got == 0) {
      // Blocking mode: queue closed and drained. Non-blocking: nothing now.
      return;
    }
    UpdateBundle sync;
    sync.kind = UpdateBundle::Kind::kSync;
    sync.site = site_id_;
    for (const RoundAdvance& advance : commands) {
      // Commands can arrive from a real network peer; reject out-of-range
      // counter ids before indexing.
      if (advance.counter < 0 ||
          advance.counter >= static_cast<int64_t>(probs_.size())) {
        continue;
      }
      probs_[static_cast<size_t>(advance.counter)] = advance.probability;
      sync.round = advance.round;
      sync.reports.push_back(CounterReport{
          advance.counter, local_counts_[static_cast<size_t>(advance.counter)]});
      if (advance.round > 0 &&
          static_cast<uint64_t>(advance.round) >
              rounds_seen_.load(std::memory_order_relaxed)) {
        rounds_seen_.store(static_cast<uint64_t>(advance.round),
                           std::memory_order_relaxed);
      }
    }
    if (sync.reports.empty()) {
      if (!block_until_closed) return;
      continue;
    }
    to_coordinator_->Push(std::move(sync));
    syncs_sent_.fetch_add(1, std::memory_order_relaxed);
    if (!block_until_closed) return;
  }
}

void SiteNode::Run() {
  std::vector<EventBatch> batches;
  batches.reserve(kEventPopBatch);
  while (true) {
    batches.clear();
    const size_t got = events_->PopBatch(&batches, kEventPopBatch);
    if (got == 0) break;  // Stream finished.
    for (const EventBatch& batch : batches) {
      const int32_t* cursor = batch.values.data();
      for (int32_t e = 0; e < batch.num_events; ++e) {
        ProcessEvent(cursor);
        cursor += layout_.num_vars;
      }
      FlushReports();  // Exact mode: the batch's remaining reports.
    }
    DrainCommands(/*block_until_closed=*/false);
  }
  UpdateBundle done;
  done.kind = UpdateBundle::Kind::kSiteDone;
  done.site = site_id_;
  to_coordinator_->Push(std::move(done));
  // Keep answering round advances until the coordinator closes our queue.
  DrainCommands(/*block_until_closed=*/true);
}

}  // namespace dsgm
