// Ingest scaling bench: N producer threads hammering Push on ONE Session
// (the sharded-router hot path) × a Snapshot() poller, sweeping producer
// counts and poller frequencies. The claims under test:
//
//   1. Multi-producer Push scales: with the per-caller shards + SPSC site
//      lanes, 8 producer threads beat 1 by >= 3x on machines with >= 16
//      hardware threads — enough for the producers AND the 8 sites +
//      coordinator to run in parallel. The machine's parallelism is the
//      ceiling, so the gate auto-derates below that (1.5x at 8-15 threads,
//      parity floors below — see --assert-scaling's help): no ingest path
//      can extract a parallel speedup from hardware that cannot run the
//      pipeline's stages in parallel.
//   2. Queries are near-free: a 100 Hz Snapshot() poller costs < 10%
//      throughput, because the coordinator publishes double-buffered
//      snapshots in O(touched cells) and readers never block the protocol.
//   3. Observability is near-free: --metrics-overhead prices the
//      instruments themselves (enabled vs SetMetricsEnabled(false)) and
//      --trace-overhead prices the trace-shipping path (drain -> kTraceChunk
//      codec -> ClusterTraceBoard ingest at 25x the production cadence);
//      both must stay <= 3% of 8-producer throughput (derated to a 10%
//      collapse-check under sanitizers or below 16 hardware threads).
//
// Also runs ctest-gated as session.ingest_scale_smoke (reduced events,
// --assert-scaling) so a concurrency regression on either path shows up
// per commit. Emits BENCH_ingest.json for the perf trajectory;
// bench/harness/bench_diff.py diffs two such files across commits.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bayes/repository.h"
#include "bayes/sampler.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/table.h"
#include "common/timer.h"
#include "common/tracing.h"
#include "dsgm/dsgm.h"
#include "harness/experiment.h"
#include "harness/json_report.h"
#include "net/codec.h"
#include "net/wire.h"

namespace dsgm {
namespace {

// Sanitizer builds run this bench too (the smoke is part of the ASan/TSan
// CI jobs), but instrumented snapshot copies on an oversubscribed machine
// are not a perf environment: the poller-cost gate derates there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif

// Tells the poller and shipper threads that the producers are done. Their
// sleep between rounds wakes on Stop(): a plain sleep_for would hold the
// join() before Finish -- and with it the timed region -- for up to one
// full poll period after the last Push, which is most of the measured
// "poller cost" on a run of a few tens of milliseconds.
class StopSignal {
 public:
  void Stop() {
    {
      MutexLock lock(&mutex_);
      stopped_ = true;
    }
    stopped_cv_.NotifyAll();
  }

  bool Stopped() {
    MutexLock lock(&mutex_);
    return stopped_;
  }

  /// Sleeps for `period` or until Stop(), whichever comes first.
  void SleepFor(std::chrono::microseconds period) {
    const auto deadline = std::chrono::steady_clock::now() + period;
    MutexLock lock(&mutex_);
    while (!stopped_) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return;
      stopped_cv_.WaitFor(&lock, deadline - now);
    }
  }

 private:
  Mutex mutex_;
  CondVar stopped_cv_;
  bool stopped_ DSGM_GUARDED_BY(mutex_) = false;
};

struct IngestRun {
  int producers = 0;
  int poller_hz = 0;
  double events_per_sec = 0.0;  // end-to-end: first Push to Finish return
  double push_seconds = 0.0;    // producers' start to last Push return
  int64_t snapshots_taken = 0;
  uint64_t trace_events_shipped = 0;  // only when the shipper thread ran
  uint64_t trace_chunks_shipped = 0;
};

StatusOr<IngestRun> RunOnce(const BayesianNetwork& net,
                            const std::vector<Instance>& events, int sites,
                            int producers, int poller_hz, double eps,
                            uint64_t seed, int batch_size,
                            bool ship_traces = false) {
  SessionBuilder builder(net);
  builder.WithBackend(Backend::kThreads)
      .WithStrategy(TrackingStrategy::kUniform)
      .WithSites(sites)
      .WithEpsilon(eps)
      .WithSeed(seed)
      .WithBatchSize(batch_size);
  StatusOr<std::unique_ptr<Session>> built = builder.Build();
  if (!built.ok()) return built.status();
  Session& session = **built;

  StopSignal done;
  std::atomic<int64_t> snapshots{0};
  std::thread poller;
  if (poller_hz > 0) {
    const auto period =
        std::chrono::microseconds(1000000 / poller_hz);
    poller = std::thread([&session, &done, &snapshots, period] {
      while (!done.Stopped()) {
        if (session.Snapshot().ok()) {
          snapshots.fetch_add(1, std::memory_order_relaxed);
        }
        done.SleepFor(period);
      }
    });
  }

  // Optional site-style trace shipper (--trace-overhead): replays the
  // standalone site's shipping loop in-process — drain every thread's ring
  // through one cursor, encode the chunk as a kTraceChunk frame, decode it
  // back, fold it into a ClusterTraceBoard — so the gate prices the whole
  // shipping path (drain + codec + board ingest), not just the Trace()
  // writes the --metrics-overhead gate already covers. The 20 ms cadence is
  // 25x the default 500 ms heartbeat piggyback, a deliberate
  // over-approximation: production shipping costs less than what's measured
  // here.
  ClusterTraceBoard board(1);
  std::atomic<uint64_t> shipped_events{0};
  std::atomic<uint64_t> shipped_chunks{0};
  std::thread shipper;
  if (ship_traces) {
    shipper = std::thread([&done, &board, &shipped_events, &shipped_chunks] {
      TraceDrainCursor cursor;
      const auto period = std::chrono::milliseconds(20);
      bool final_pass = false;
      while (true) {
        TraceChunk chunk;
        chunk.site = 0;
        const size_t drained =
            DrainTraceEvents(&cursor, &chunk.events, &chunk.first_seq);
        if (drained > 0) {
          std::vector<uint8_t> bytes;
          AppendFrame(MakeTraceChunk(std::move(chunk)), &bytes);
          Frame decoded;
          size_t consumed = 0;
          if (DecodeFrame(bytes.data(), bytes.size(), &decoded, &consumed)
                  .ok()) {
            board.Ingest(0, decoded.trace.first_seq, decoded.trace.events);
          }
          shipped_events.fetch_add(drained, std::memory_order_relaxed);
          shipped_chunks.fetch_add(1, std::memory_order_relaxed);
        }
        if (final_pass) break;
        if (done.Stopped()) {
          final_pass = true;  // one last drain after the producers stop
          continue;
        }
        done.SleepFor(period);
      }
    });
  }

  WallTimer wall;
  std::vector<std::thread> threads;
  std::atomic<double> push_seconds{0.0};
  const size_t per = events.size() / static_cast<size_t>(producers);
  for (int t = 0; t < producers; ++t) {
    const size_t begin = static_cast<size_t>(t) * per;
    const size_t end = t + 1 == producers ? events.size() : begin + per;
    threads.emplace_back([&session, &events, &wall, &push_seconds, begin, end] {
      for (size_t e = begin; e < end; ++e) {
        if (!session.Push(events[e]).ok()) return;
      }
      const double elapsed = wall.ElapsedSeconds();
      // Keep the slowest producer's finish line (max via CAS).
      double seen = push_seconds.load(std::memory_order_relaxed);
      while (elapsed > seen &&
             !push_seconds.compare_exchange_weak(seen, elapsed)) {
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Stop the poller before Finish: Snapshot is cross-thread-safe against
  // ingest, but Finish's final-model publication is not a concurrent query
  // target (see the Session::Finish contract).
  done.Stop();
  if (poller.joinable()) poller.join();
  if (shipper.joinable()) shipper.join();
  StatusOr<RunReport> report = session.Finish();
  const double total_seconds = wall.ElapsedSeconds();
  if (!report.ok()) return report.status();
  if (report->events_processed != static_cast<int64_t>(events.size())) {
    return InternalError("ingest bench: event count mismatch");
  }

  IngestRun run;
  run.producers = producers;
  run.poller_hz = poller_hz;
  run.push_seconds = push_seconds.load();
  run.events_per_sec =
      total_seconds > 0.0 ? static_cast<double>(events.size()) / total_seconds
                          : 0.0;
  run.snapshots_taken = snapshots.load();
  run.trace_events_shipped = shipped_events.load(std::memory_order_relaxed);
  run.trace_chunks_shipped = shipped_chunks.load(std::memory_order_relaxed);
  return run;
}

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags);
  flags.DefineInt64("events", 200000, "training instances per run");
  flags.DefineString("network", "alarm", "network to stream");
  flags.DefineInt64("sites", 8, "cluster size (kThreads backend)");
  flags.DefineInt64("batch", 256, "events per dispatch batch");
  flags.DefineString("producers", "1,2,4,8,16", "producer thread counts to sweep");
  flags.DefineString("poller-hz", "0,100", "Snapshot() poller frequencies to sweep");
  flags.DefineInt64("repeats", 2, "runs per config; the best run is reported "
                    "(throughput benches measure capacity, not scheduler noise)");
  flags.DefineBool("assert-scaling", false,
                   "exit 1 unless (a) 8-producer throughput clears the "
                   "hardware-derated multiple of 1-producer throughput "
                   "(>= 3x with >= 16 hardware threads, >= 1.5x with >= 8, "
                   ">= 0.85x with >= 2, >= 0.5x on a single core — below "
                   "~16 threads the 8 sites + coordinator saturate the "
                   "machine in BOTH configs, so parity, not speedup, is "
                   "the honest floor) and (b) the 100 Hz poller costs "
                   "< 10% throughput at every swept producer count "
                   "(ctest smoke gate)");
  flags.DefineBool("metrics-overhead", false,
                   "price the metrics layer itself: run the 8-producer quiet "
                   "config with instruments enabled and disabled "
                   "(SetMetricsEnabled) and exit 1 if enabling them costs "
                   "> 3% throughput (10% under sanitizers or below 16 "
                   "hardware threads, where scheduler noise exceeds the "
                   "effect)");
  flags.DefineBool("trace-overhead", false,
                   "price trace shipping: run the 8-producer quiet config "
                   "with and without a site-style shipper thread (drain -> "
                   "kTraceChunk encode -> decode -> ClusterTraceBoard "
                   "ingest, at 25x the production heartbeat cadence) and "
                   "exit 1 if shipping costs > 3% throughput (10% under "
                   "sanitizers or below 16 hardware threads)");
  flags.DefineString("json", "BENCH_ingest.json",
                     "machine-readable results file (empty disables)");
  ParseFlagsOrDie(&flags, argc, argv);

  const int64_t num_events = flags.GetInt64("events");
  const int sites = static_cast<int>(flags.GetInt64("sites"));
  const int batch = static_cast<int>(flags.GetInt64("batch"));
  const int repeats = std::max(1, static_cast<int>(flags.GetInt64("repeats")));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  const double eps = flags.GetDouble("eps");
  const StatusOr<BayesianNetwork> net = NetworkByName(flags.GetString("network"));
  if (!net.ok()) {
    std::cerr << net.status() << "\n";
    return 1;
  }
  // Pre-sample the stream once so the producers measure pure Push cost.
  ForwardSampler sampler(*net, seed + 1);
  const std::vector<Instance> events = sampler.SampleMany(num_events);

  std::vector<int> producer_counts;
  for (const std::string& text : SplitCommaList(flags.GetString("producers"))) {
    producer_counts.push_back(std::stoi(text));
  }
  std::vector<int> poller_rates;
  for (const std::string& text : SplitCommaList(flags.GetString("poller-hz"))) {
    poller_rates.push_back(std::stoi(text));
  }

  const unsigned hw = std::thread::hardware_concurrency();
  TablePrinter table("Ingest scaling (" + net->name() + ", " +
                     FormatInstances(num_events) + " instances, " +
                     std::to_string(sites) + " sites, hw threads: " +
                     std::to_string(hw) + ")");
  table.SetHeader({"producers", "poller Hz", "events/s", "vs 1 thread",
                   "snapshots"});
  Json records = Json::Array();
  // The sweep's configs in order; best[i] is the fastest run of configs[i].
  // Repeats are the outer loop, so every config runs once per round: a slow
  // stretch of a shared machine then lands on all configs alike instead of
  // on whichever config ran all its repeats during it (the gates below
  // compare configs). Odd rounds run the sweep backwards, because a run
  // reads slower right after another one: in forward order alone, each
  // 100 Hz config always followed its quiet twin and read a few percent
  // under it even with the poller doing nothing.
  std::vector<std::pair<int, int>> configs;
  for (const int producers : producer_counts) {
    for (const int poller_hz : poller_rates) {
      configs.emplace_back(producers, poller_hz);
    }
  }
  std::vector<IngestRun> best(configs.size());
  for (int r = 0; r < repeats; ++r) {
    for (size_t i = 0; i < configs.size(); ++i) {
      const size_t c = r % 2 == 0 ? i : configs.size() - 1 - i;
      const auto [producers, poller_hz] = configs[c];
      StatusOr<IngestRun> run =
          RunOnce(*net, events, sites, producers, poller_hz, eps,
                  seed + static_cast<uint64_t>(r), batch);
      if (!run.ok()) {
        std::cerr << "producers=" << producers << " poller=" << poller_hz
                  << ": " << run.status() << "\n";
        return 1;
      }
      if (run->events_per_sec > best[c].events_per_sec) best[c] = *run;
    }
  }

  auto find_run = [&best](int producers, int poller_hz) -> const IngestRun* {
    for (const IngestRun& run : best) {
      if (run.producers == producers && run.poller_hz == poller_hz) return &run;
    }
    return nullptr;
  };
  // Speedups are relative to the true single-producer quiet run only; a
  // sweep without producers=1 reports no speedup rather than a misleading
  // ratio against whatever happened to come first.
  const IngestRun* baseline = find_run(1, 0);
  for (const IngestRun& run : best) {
    const bool has_baseline =
        baseline != nullptr && baseline->events_per_sec > 0.0;
    const double speedup =
        has_baseline ? run.events_per_sec / baseline->events_per_sec : 0.0;
    table.AddRow({std::to_string(run.producers), std::to_string(run.poller_hz),
                  FormatCount(static_cast<int64_t>(run.events_per_sec)),
                  has_baseline ? FormatDouble(speedup, 2) + "x" : "-",
                  std::to_string(run.snapshots_taken)});
    Json record = Json::Object();
    record.Add("network", Json::Str(net->name()))
        .Add("sites", Json::Int(sites))
        .Add("producers", Json::Int(run.producers))
        .Add("poller_hz", Json::Int(run.poller_hz))
        .Add("events_per_sec", Json::Double(run.events_per_sec))
        .Add("push_seconds", Json::Double(run.push_seconds));
    if (has_baseline) {
      record.Add("speedup_vs_single", Json::Double(speedup));
    }
    record.Add("snapshots_taken", Json::Int(run.snapshots_taken));
    records.Append(std::move(record));
  }
  table.Print(std::cout);
  std::cout << "\nthroughput is end-to-end (first Push to Finish); 'snapshots' "
               "counts live Snapshot()\nqueries served during the run by the "
               "poller thread.\n\n";

  bool gate_failed = false;
  if (flags.GetBool("assert-scaling")) {
    // (a) Multi-producer scaling, derated to the machine's parallelism.
    // Producer-side speedup is only expressible once the producers AND the
    // k sites + coordinator all get real cores (~16 threads for the
    // default 8x8 sweep); below that the downstream stages saturate the
    // machine in both configs and parity is the honest floor, and a single
    // hardware thread can only show that sharded ingest does not COLLAPSE
    // under contention.
    const double required =
        hw >= 16 ? 3.0 : (hw >= 8 ? 1.5 : (hw >= 2 ? 0.85 : 0.5));
    const IngestRun* single = find_run(1, 0);
    const IngestRun* multi = find_run(8, 0);
    if (single != nullptr && multi != nullptr) {
      if (multi->events_per_sec < required * single->events_per_sec) {
        std::cerr << "GATE FAILED: 8-producer throughput "
                  << static_cast<int64_t>(multi->events_per_sec)
                  << " ev/s < " << required << "x single-producer "
                  << static_cast<int64_t>(single->events_per_sec)
                  << " ev/s (hw threads: " << hw << ")\n";
        gate_failed = true;
      }
    } else {
      std::cerr << "GATE FAILED: --assert-scaling needs producers 1 and 8 "
                   "and poller-hz 0 in the sweep\n";
      gate_failed = true;
    }
    // (b) Poller cost: 100 Hz of live queries must stay under 10% (25%
    // under sanitizers, whose instrumented copies distort the ratio).
    const double poller_floor = kSanitizedBuild ? 0.75 : 0.9;
    for (const int producers : producer_counts) {
      const IngestRun* quiet = find_run(producers, 0);
      const IngestRun* polled = find_run(producers, 100);
      if (quiet == nullptr || polled == nullptr) continue;
      if (polled->events_per_sec < poller_floor * quiet->events_per_sec) {
        std::cerr << "GATE FAILED: 100 Hz poller cut throughput to "
                  << static_cast<int64_t>(polled->events_per_sec) << " ev/s (< "
                  << static_cast<int64_t>(poller_floor * 100) << "% of "
                  << static_cast<int64_t>(quiet->events_per_sec) << ") at "
                  << producers << " producers\n";
        gate_failed = true;
      }
    }
  }

  // The overhead gates record their measurements here; the block lands in
  // BENCH_ingest.json under "overhead" so the perf trajectory tracks the
  // cost of the observability layer, not just raw throughput.
  Json overhead = Json::Object();
  bool overhead_measured = false;

  // A 3% overhead bound is only measurable when the pipeline's ~17 threads
  // actually get cores: below 16 hardware threads the scheduler noise on an
  // oversubscribed machine exceeds the effect being measured (observed
  // swings of +-8% between back-to-back identical runs on 1 core), so the
  // gate derates to a 10% collapse-check there — same philosophy as
  // --assert-scaling's hardware ladder. Sanitizer instrumentation distorts
  // the ratio the same way.
  const double overhead_bound =
      kSanitizedBuild || hw < 16 ? 0.10 : 0.03;

  if (flags.GetBool("metrics-overhead")) {
    // Alternate enabled/disabled runs so both sides see the same machine
    // conditions, and keep the best of each: this prices the instruments,
    // not the scheduler. Events fan out over 8 producers, so every swept
    // hot path (ingest staging, lanes, sites, coordinator) is exercised.
    const int overhead_repeats = std::max(repeats, 3);
    double best_enabled = 0.0;
    double best_disabled = 0.0;
    for (int r = 0; r < overhead_repeats; ++r) {
      for (const bool enabled : {true, false}) {
        SetMetricsEnabled(enabled);
        StatusOr<IngestRun> run =
            RunOnce(*net, events, sites, 8, 0, eps,
                    seed + static_cast<uint64_t>(r), batch);
        if (!run.ok()) {
          SetMetricsEnabled(true);
          std::cerr << "metrics-overhead run: " << run.status() << "\n";
          return 1;
        }
        double& best = enabled ? best_enabled : best_disabled;
        if (run->events_per_sec > best) best = run->events_per_sec;
      }
    }
    SetMetricsEnabled(true);
    const double cost =
        best_disabled > 0.0
            ? std::max(0.0, 1.0 - best_enabled / best_disabled)
            : 0.0;
    const double bound = overhead_bound;
    std::cout << "metrics overhead at 8 producers: enabled "
              << static_cast<int64_t>(best_enabled) << " ev/s vs disabled "
              << static_cast<int64_t>(best_disabled) << " ev/s ("
              << FormatDouble(cost * 100.0, 2) << "% cost, bound "
              << static_cast<int64_t>(bound * 100.0 + 0.5) << "%)\n";
    if (cost > bound) {
      std::cerr << "GATE FAILED: metrics instrumentation cost "
                << FormatDouble(cost * 100.0, 2) << "% > "
                << static_cast<int64_t>(bound * 100.0 + 0.5) << "% of 8-producer "
                   "throughput\n";
      gate_failed = true;
    }
    Json gate = Json::Object();
    gate.Add("enabled_events_per_sec", Json::Double(best_enabled))
        .Add("disabled_events_per_sec", Json::Double(best_disabled))
        .Add("cost_fraction", Json::Double(cost))
        .Add("bound_fraction", Json::Double(bound));
    overhead.Add("metrics", std::move(gate));
    overhead_measured = true;
  }

  if (flags.GetBool("trace-overhead")) {
    // Same shape as the metrics gate: alternate shipper-on/shipper-off runs
    // under identical machine conditions and compare the best of each. The
    // shipper replays the standalone site's whole shipping path at 25x the
    // production cadence (see RunOnce), so the measured cost upper-bounds
    // what a real deployment pays for cluster-wide tracing.
    const int overhead_repeats = std::max(repeats, 3);
    IngestRun best_shipping;
    double best_quiet = 0.0;
    for (int r = 0; r < overhead_repeats; ++r) {
      for (const bool ship : {true, false}) {
        StatusOr<IngestRun> run =
            RunOnce(*net, events, sites, 8, 0, eps,
                    seed + static_cast<uint64_t>(r), batch, ship);
        if (!run.ok()) {
          std::cerr << "trace-overhead run: " << run.status() << "\n";
          return 1;
        }
        if (ship) {
          if (run->events_per_sec > best_shipping.events_per_sec) {
            best_shipping = *run;
          }
        } else if (run->events_per_sec > best_quiet) {
          best_quiet = run->events_per_sec;
        }
      }
    }
    const double cost =
        best_quiet > 0.0
            ? std::max(0.0, 1.0 - best_shipping.events_per_sec / best_quiet)
            : 0.0;
    const double bound = overhead_bound;
    std::cout << "trace shipping overhead at 8 producers: shipping "
              << static_cast<int64_t>(best_shipping.events_per_sec)
              << " ev/s vs quiet " << static_cast<int64_t>(best_quiet)
              << " ev/s (" << FormatDouble(cost * 100.0, 2)
              << "% cost, bound " << static_cast<int64_t>(bound * 100.0 + 0.5) << "%); "
              << best_shipping.trace_events_shipped << " events in "
              << best_shipping.trace_chunks_shipped << " chunks\n";
    if (cost > bound) {
      std::cerr << "GATE FAILED: trace shipping cost "
                << FormatDouble(cost * 100.0, 2) << "% > "
                << static_cast<int64_t>(bound * 100.0 + 0.5) << "% of 8-producer "
                   "throughput\n";
      gate_failed = true;
    }
    Json gate = Json::Object();
    gate.Add("shipping_events_per_sec",
             Json::Double(best_shipping.events_per_sec))
        .Add("quiet_events_per_sec", Json::Double(best_quiet))
        .Add("cost_fraction", Json::Double(cost))
        .Add("bound_fraction", Json::Double(bound))
        .Add("trace_events_shipped",
             Json::Int(static_cast<int64_t>(best_shipping.trace_events_shipped)))
        .Add("trace_chunks_shipped",
             Json::Int(static_cast<int64_t>(best_shipping.trace_chunks_shipped)));
    overhead.Add("trace_shipping", std::move(gate));
    overhead_measured = true;
  }

  if (!flags.GetString("json").empty()) {
    MetricsSnapshot final_metrics = MetricsRegistry::Global().Snapshot();
    final_metrics.captured_nanos = NowNanos();
    Json root = Json::Object();
    root.Add("bench", Json::Str("ingest_scale"))
        .Add("events_per_run", Json::Int(num_events))
        .Add("sites", Json::Int(sites))
        .Add("batch_size", Json::Int(batch))
        .Add("epsilon", Json::Double(eps))
        .Add("seed", Json::Int(flags.GetInt64("seed")))
        .Add("hardware_threads", Json::Int(static_cast<int64_t>(hw)))
        .Add("results", std::move(records));
    if (overhead_measured) {
      root.Add("overhead", std::move(overhead));
    }
    root.Add("metrics", MetricsSnapshotToJson(final_metrics));
    const Status written = WriteJsonReport(flags.GetString("json"), root);
    if (!written.ok()) {
      std::cerr << written << "\n";
      return 1;
    }
    std::cout << "wrote " << flags.GetString("json") << "\n";
  }
  return gate_failed ? 1 : 0;
}

}  // namespace
}  // namespace dsgm

int main(int argc, char** argv) { return dsgm::Main(argc, argv); }
