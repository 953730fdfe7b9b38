#include "ledger.h"

#include <time.h>

#include <atomic>
#include <memory>
#include <thread>

#include "cluster/cluster_runner.h"
#include "cluster/coordinator_node.h"
#include "cluster/site_node.h"
#include "common/queue.h"
#include "core/counter_layout.h"
#include "core/mle_tracker.h"
#include "monitor/approx_counter.h"
#include "monitor/exact_counter.h"
#include "net/channel.h"
#include "net/codec.h"

namespace perfbench {

using dsgm::BayesianNetwork;
using dsgm::Channel;
using dsgm::EventBatch;
using dsgm::Instance;
using dsgm::RoundAdvance;
using dsgm::UpdateBundle;

namespace {

constexpr int64_t kBlock = 4096;

int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// The coordinator's inbound lane, optionally keeping a copy of every
/// bundle the coordinator consumed (the codec replay's frames).
class RecordingChannel : public Channel<UpdateBundle> {
 public:
  RecordingChannel(dsgm::BoundedQueue<UpdateBundle>* queue, bool record)
      : inner_(queue), record_(record) {}

  bool Push(UpdateBundle item) override { return inner_.Push(std::move(item)); }
  size_t PopBatch(std::vector<UpdateBundle>* out, size_t max_items) override {
    return Record(out, inner_.PopBatch(out, max_items));
  }
  size_t TryPopBatch(std::vector<UpdateBundle>* out, size_t max_items) override {
    return Record(out, inner_.TryPopBatch(out, max_items));
  }
  void Close() override { inner_.Close(); }

  std::vector<UpdateBundle> recorded;

 private:
  size_t Record(const std::vector<UpdateBundle>* out, size_t got) {
    if (record_) {
      recorded.insert(recorded.end(), out->end() - static_cast<ptrdiff_t>(got), out->end());
    }
    return got;
  }
  dsgm::QueueChannel<UpdateBundle> inner_;
  bool record_;
};

std::unique_ptr<dsgm::CounterFamily> FamilyFor(const BayesianNetwork& network,
                                               const dsgm::TrackerConfig& config,
                                               int64_t counters, dsgm::CommStats* stats) {
  if (config.strategy == dsgm::TrackingStrategy::kExactMle) {
    return std::make_unique<dsgm::ExactCounterFamily>(counters, config.num_sites, stats);
  }
  dsgm::ApproxCounterOptions options;
  options.num_sites = config.num_sites;
  options.seed = config.seed;
  options.probability_constant = config.probability_constant;
  return std::make_unique<dsgm::ApproxCounterFamily>(
      dsgm::LayoutEpsilons(network, config), options, stats);
}

}  // namespace

CoreReplay ReplayCore(const BayesianNetwork& network, const Workload& workload,
                      const Inputs& inputs, uint64_t seed, int64_t events,
                      SpanLog* log) {
  const dsgm::TrackerConfig config = TrackerFor(workload, seed);
  const int sites = workload.sites;
  CoreReplay replay;

  // core: whole instances through the tracker, a block at a time so that
  // unpacking the inputs stays outside the timed part.
  {
    dsgm::MleTracker tracker(network, config);
    std::vector<Instance> block(static_cast<size_t>(kBlock),
                                Instance(static_cast<size_t>(inputs.num_vars)));
    int64_t observe_ns = 0;
    for (int64_t base = 0; base < events; base += kBlock) {
      const int64_t n = std::min(kBlock, events - base);
      for (int64_t i = 0; i < n; ++i) inputs.Fill(base + i, &block[static_cast<size_t>(i)]);
      ScopedSpan span(log, "core.observe", n);
      const int64_t start = MonoNanos();
      for (int64_t i = 0; i < n; ++i) {
        tracker.Observe(block[static_cast<size_t>(i)], static_cast<int>((base + i) % sites));
      }
      observe_ns += MonoNanos() - start;
    }
    replay.observe_ns_per_event = static_cast<double>(observe_ns) / static_cast<double>(events);
  }

  // monitor: the same events as counter increments, two per variable.
  {
    const dsgm::CounterLayout layout(network);
    dsgm::CommStats stats;
    std::unique_ptr<dsgm::CounterFamily> family =
        FamilyFor(network, config, layout.total_counters(), &stats);
    std::vector<int64_t> ids;
    Instance x(static_cast<size_t>(inputs.num_vars));
    int64_t increment_ns = 0;
    int64_t increments = 0;
    for (int64_t base = 0; base < events; base += kBlock) {
      const int64_t n = std::min(kBlock, events - base);
      ids.clear();
      for (int64_t i = 0; i < n; ++i) {
        inputs.Fill(base + i, &x);
        for (int v = 0; v < layout.num_vars; ++v) {
          const int64_t row = layout.ParentRowOf(v, x);
          ids.push_back(layout.JointId(v, row, x[static_cast<size_t>(v)]));
          ids.push_back(layout.ParentId(v, row));
        }
      }
      const size_t per_event = ids.size() / static_cast<size_t>(n);
      ScopedSpan span(log, "monitor.increment", static_cast<int64_t>(ids.size()));
      const int64_t start = MonoNanos();
      for (size_t j = 0; j < ids.size(); ++j) {
        family->Increment(ids[j], static_cast<int>((base + static_cast<int64_t>(j / per_event)) % sites));
      }
      increment_ns += MonoNanos() - start;
      increments += static_cast<int64_t>(ids.size());
    }
    replay.increment_ns = static_cast<double>(increment_ns) / static_cast<double>(increments);
  }
  return replay;
}

ClusterReplay ReplayCluster(const BayesianNetwork& network, const Workload& workload,
                            const Inputs& inputs, uint64_t seed, int64_t events,
                            bool with_codec, SpanLog* log) {
  const dsgm::TrackerConfig config = TrackerFor(workload, seed);
  const int k = workload.sites;
  const int n = inputs.num_vars;
  const dsgm::CounterLayout layout(network);
  ClusterReplay replay;

  // Sites and coordinator over loopback queues; each thread's CPU time
  // covers its whole Run().
  std::vector<EventBatch> batches;
  std::vector<UpdateBundle> recorded;
  {
    ScopedSpan span(log, "cluster.replay", events);
    std::vector<std::unique_ptr<dsgm::BoundedQueue<EventBatch>>> event_queues;
    std::vector<std::unique_ptr<dsgm::BoundedQueue<RoundAdvance>>> command_queues;
    std::vector<std::unique_ptr<dsgm::QueueChannel<EventBatch>>> event_channels;
    std::vector<std::unique_ptr<dsgm::QueueChannel<RoundAdvance>>> command_channels;
    std::vector<Channel<RoundAdvance>*> commands;
    dsgm::BoundedQueue<UpdateBundle> updates;
    RecordingChannel to_coordinator(&updates, with_codec);
    for (int s = 0; s < k; ++s) {
      event_queues.push_back(std::make_unique<dsgm::BoundedQueue<EventBatch>>(64));
      command_queues.push_back(std::make_unique<dsgm::BoundedQueue<RoundAdvance>>());
      event_channels.push_back(
          std::make_unique<dsgm::QueueChannel<EventBatch>>(event_queues.back().get()));
      command_channels.push_back(
          std::make_unique<dsgm::QueueChannel<RoundAdvance>>(command_queues.back().get()));
      commands.push_back(command_channels.back().get());
    }
    dsgm::CoordinatorNode coordinator(dsgm::LayoutEpsilons(network, config),
                                      layout.total_counters(), k,
                                      config.probability_constant, &to_coordinator,
                                      commands);
    std::vector<std::unique_ptr<dsgm::SiteNode>> sites;
    for (int s = 0; s < k; ++s) {
      sites.push_back(std::make_unique<dsgm::SiteNode>(
          s, network, config.seed + static_cast<uint64_t>(s) + 1,
          event_channels[static_cast<size_t>(s)].get(),
          command_channels[static_cast<size_t>(s)].get(), &to_coordinator));
    }
    std::atomic<int64_t> site_cpu_ns{0};
    int64_t coordinator_cpu_ns = 0;
    std::vector<std::thread> threads;
    for (int s = 0; s < k; ++s) {
      threads.emplace_back([&, s] {
        const int64_t start = ThreadCpuNanos();
        sites[static_cast<size_t>(s)]->Run();
        site_cpu_ns += ThreadCpuNanos() - start;
      });
    }
    std::thread coordinator_thread([&] {
      const int64_t start = ThreadCpuNanos();
      coordinator.Run();
      coordinator_cpu_ns = ThreadCpuNanos() - start;
    });
    // Events go round robin in batches of 256, the session's default; the
    // codec replay below keeps a copy of each batch.
    constexpr int kBatch = 256;
    std::vector<EventBatch> staged(static_cast<size_t>(k));
    Instance x(static_cast<size_t>(n));
    auto deliver = [&](int site) {
      EventBatch& batch = staged[static_cast<size_t>(site)];
      if (with_codec) batches.push_back(batch);
      event_channels[static_cast<size_t>(site)]->Push(std::move(batch));
      batch = EventBatch();
    };
    for (int64_t e = 0; e < events; ++e) {
      const int site = static_cast<int>(e % k);
      EventBatch& batch = staged[static_cast<size_t>(site)];
      inputs.Fill(e, &x);
      batch.values.insert(batch.values.end(), x.begin(), x.end());
      if (++batch.num_events == kBatch) deliver(site);
    }
    for (int site = 0; site < k; ++site) {
      if (staged[static_cast<size_t>(site)].num_events > 0) deliver(site);
    }
    for (auto& channel : event_channels) channel->Close();
    coordinator_thread.join();
    for (std::thread& thread : threads) thread.join();
    const dsgm::CommStats comm = coordinator.comm();
    const double reports = static_cast<double>(comm.update_messages + comm.sync_messages);
    replay.site_ns_per_event =
        static_cast<double>(site_cpu_ns.load()) / static_cast<double>(events);
    replay.coord_ns_per_report =
        reports == 0 ? 0.0 : static_cast<double>(coordinator_cpu_ns) / reports;
    replay.reports_per_event = reports / static_cast<double>(events);
    recorded = std::move(to_coordinator.recorded);
  }

  if (with_codec) {
    std::vector<dsgm::Frame> frames;
    frames.reserve(batches.size() + recorded.size());
    for (const EventBatch& batch : batches) frames.push_back(dsgm::MakeFrame(batch));
    for (const UpdateBundle& bundle : recorded) frames.push_back(dsgm::MakeFrame(bundle));
    std::vector<uint8_t> wire;
    {
      ScopedSpan span(log, "net.encode", static_cast<int64_t>(frames.size()));
      const int64_t start = MonoNanos();
      for (const dsgm::Frame& frame : frames) dsgm::AppendFrameMaybeCompressed(frame, &wire);
      replay.encode_ns_per_frame = static_cast<double>(MonoNanos() - start) /
                                   static_cast<double>(frames.size());
    }
    {
      ScopedSpan span(log, "net.decode", static_cast<int64_t>(frames.size()));
      dsgm::Frame decoded;
      size_t offset = 0;
      size_t index = 0;
      const int64_t start = MonoNanos();
      while (offset < wire.size() && replay.codec_ok) {
        size_t consumed = 0;
        replay.codec_ok = dsgm::DecodeFrame(wire.data() + offset, wire.size() - offset,
                                            &decoded, &consumed)
                              .ok() &&
                          index < frames.size() && decoded.type == frames[index].type;
        offset += consumed;
        ++index;
      }
      replay.decode_ns_per_frame = static_cast<double>(MonoNanos() - start) /
                                   static_cast<double>(frames.size());
      replay.codec_ok = replay.codec_ok && index == frames.size();
    }
    replay.frames_per_event =
        static_cast<double>(frames.size()) / static_cast<double>(events);
  }
  return replay;
}

}  // namespace perfbench
