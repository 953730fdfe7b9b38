// dsgm_perfbench: runs one workload for about --seconds and prints its
// metrics, checked against the benchmark's own reference computation.
//
//   dsgm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics of untraced sessions; a run does
// about --seconds worth of whole sessions (see Workload::session_s). --trace 1
// alternates untraced and traced sessions, replays the inputs through each
// lower layer, prints the per-layer metrics, the self-time table, the
// reconciliation against cpu_ns_per_event and the tracing overhead, and
// writes the spans as Chrome-trace JSON into --out-dir. The last line of
// standard output is always one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"
#include "reference.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

using dsgm::BayesianNetwork;
using dsgm::MetricsSnapshot;

constexpr int64_t kPoolSize = 1 << 18;
constexpr int kHeldOut = 2000;
constexpr double kMinAgreement = 0.99;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(mid), values.end());
  return values[mid];
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(q * static_cast<double>(values.size() - 1))];
}

uint64_t CounterDelta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                      const char* name) {
  const auto* a = after.FindCounter(name);
  const auto* b = before.FindCounter(name);
  return (a ? a->value : 0) - (b ? b->value : 0);
}

/// Count and sum of a histogram's samples between two snapshots.
std::pair<uint64_t, uint64_t> HistogramDelta(const MetricsSnapshot& before,
                                             const MetricsSnapshot& after,
                                             const char* name) {
  const auto* a = after.FindHistogram(name);
  const auto* b = before.FindHistogram(name);
  return {(a ? a->stats.count : 0) - (b ? b->stats.count : 0),
          (a ? a->stats.sum : 0) - (b ? b->stats.sum : 0)};
}

ModelUnderTest ModelOf(const dsgm::ModelView& view) {
  ModelUnderTest model;
  model.cpd = [&view](int v, int value, int64_t row) {
    return view.CpdEstimate(v, value, row);
  };
  model.joint = [&view](const dsgm::Instance& x) { return view.JointProbability(x); };
  model.predict = [&view](int target, const dsgm::Instance& x) {
    return dsgm::Predict(view, target, x);
  };
  return model;
}

double MsgsPerKevent(const dsgm::RunReport& report) {
  return 1e3 * static_cast<double>(report.comm.TotalMessages()) /
         static_cast<double>(report.events_processed);
}

/// Socket bytes where the backend has sockets; elsewhere the bytes the
/// protocol's messages take in the codec's wire format (CommStats).
double WireBytesPerEvent(const dsgm::RunReport& report) {
  const uint64_t bytes =
      report.transport_measured
          ? report.transport_bytes_up + report.transport_bytes_down
          : report.comm.bytes_up + report.comm.bytes_down;
  return static_cast<double>(bytes) / static_cast<double>(report.events_processed);
}

/// The acceptance checks of one finished session. Prints every check of the
/// first session and any check that fails.
bool CheckSession(const Workload& workload, const SessionResult& session,
                  const Reference& reference, const HeldOut& held_out, bool verbose) {
  if (!session.finished) {
    std::printf("check finish: FAIL (Finish did not return a report)\n");
    return false;
  }
  const dsgm::RunReport& report = session.report;
  std::vector<CheckResult> checks;
  {
    CheckResult events;
    events.name = "events_processed";
    events.value = static_cast<double>(report.events_processed);
    events.pass = report.events_processed == workload.events;
    events.detail = std::to_string(report.events_processed) + " processed of " +
                    std::to_string(workload.events) + " pushed";
    checks.push_back(events);
  }
  const ModelUnderTest model = ModelOf(report.model);
  if (workload.strategy == dsgm::TrackingStrategy::kExactMle) {
    checks.push_back(CheckCpdsEqual(reference, model, 1e-12));
  }
  checks.push_back(CheckMedianLogRatio(reference, model, held_out, kEpsilon));
  checks.push_back(CheckPredictAgreement(reference, model, held_out, kMinAgreement));
  if (workload.strategy != dsgm::TrackingStrategy::kExactMle) {
    // Exact MLE sends 2 messages per variable per event.
    const double exact = 2e3 * reference.network().num_variables();
    CheckResult msgs;
    msgs.name = "msgs_per_kevent";
    msgs.value = MsgsPerKevent(report);
    msgs.pass = msgs.value <= exact / 10.0;
    char detail[96];
    std::snprintf(detail, sizeof(detail), "%.1f msgs/kevent (<= %.0f, a tenth of exact)",
                  msgs.value, exact / 10.0);
    msgs.detail = detail;
    checks.push_back(msgs);
  }
  bool ok = true;
  for (const CheckResult& check : checks) {
    ok &= check.pass;
    if (verbose || !check.pass) {
      std::printf("check %s: %s (%s)\n", check.name.c_str(), check.pass ? "ok" : "FAIL",
                  check.detail.c_str());
    }
  }
  return ok;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, const Ops& ops, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(ops.attempted()),
              static_cast<long long>(ops.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

void PrintOps(const Ops& ops) {
  const std::pair<const char*, const OpCount*> rows[] = {
      {"Build", &ops.build},       {"Push", &ops.push},       {"Snapshot", &ops.snapshot},
      {"Predict", &ops.predict},   {"Finish", &ops.finish}};
  for (const auto& [name, count] : rows) {
    std::printf("ops %-8s attempted %10lld failed %lld\n", name,
                static_cast<long long>(count->attempted),
                static_cast<long long>(count->failed));
  }
  std::printf("ops events pushed %lld, RunReport::events_processed %lld\n",
              static_cast<long long>(ops.events_pushed),
              static_cast<long long>(ops.events_processed));
}

/// Resident memory of the process now (VmRSS), from /proc/self/statm.
double CurrentRssMib() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const int read = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  return read == 2 ? static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
                         (1024.0 * 1024.0)
                   : 0.0;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Per-session figures the end-to-end metrics are medians of.
struct SessionFigures {
  std::vector<double> eps, cpu_ns, producer_cpu_ns, msgs, bytes, query_us, lateness_us;
  int64_t events = 0;
  double query_ns_total = 0.0;

  void Add(const SessionResult& s, int64_t n) {
    eps.push_back(static_cast<double>(n) / s.window_s);
    cpu_ns.push_back(1e9 * s.cpu_s / static_cast<double>(n));
    producer_cpu_ns.push_back(1e9 * s.producer_cpu_s / static_cast<double>(n));
    msgs.push_back(MsgsPerKevent(s.report));
    bytes.push_back(WireBytesPerEvent(s.report));
    query_us.insert(query_us.end(), s.query_us.begin(), s.query_us.end());
    lateness_us.insert(lateness_us.end(), s.lateness_us.begin(), s.lateness_us.end());
    events += n;
    for (double q : s.query_us) query_ns_total += 1e3 * q;
  }
};

std::vector<Metric> EndToEnd(const SessionFigures& f, double setup_s, double rss_mib) {
  return {{"ingest_eps", Median(f.eps), "events/s"},
          {"cpu_ns_per_event", Median(f.cpu_ns), "ns"},
          {"msgs_per_kevent", Median(f.msgs), "msgs"},
          {"wire_bytes_per_event", Median(f.bytes), "bytes"},
          {"query_p50_us", Median(f.query_us), "us"},
          {"setup_s", setup_s, "s"},
          {"peak_rss_mib", rss_mib, "MiB"}};
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dsgm_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; one of:", args.workload.c_str());
    for (const std::string& name : WorkloadNames()) std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const bool traced_run = args.trace != 0;
  const int64_t run_start = MonoNanos();

  const BayesianNetwork network = dsgm::Alarm();
  // Set-ups come first, while the heap holds nothing that depends on the
  // seed: whether Build() reuses freed heap or faults fresh pages in
  // depends on what else was allocated before it.
  Ops ops;
  Tracing tracing;
  SpanLog replay_log(3);
  const std::vector<double> setups = MeasureSetups(
      network, *workload, args.seed, &ops, traced_run ? &tracing.producer : nullptr);
  // The fastest set-up: the set-up's own work. A set-up starts threads (and
  // on kLocalTcp connects sockets), and on a busy host many of them wait
  // several times that work to be scheduled, so the median moved by up to
  // half from run to run, and the lower quartile by a quarter.
  const double setup_s = *std::min_element(setups.begin(), setups.end());

  const Inputs inputs = MakeInputs(network, args.seed, kPoolSize, kHeldOut);
  const Reference reference = ReferenceFor(network, inputs, workload->events);
  std::printf("workload %s seed %llu: %lld events/session from a pool of %lld "
              "instances, %d held-out\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              static_cast<long long>(workload->events), static_cast<long long>(kPoolSize),
              kHeldOut);

  std::string selftest;
  bool correct = SelfTest(reference, inputs.held_out, kEpsilon, kMinAgreement, &selftest);
  std::fputs(selftest.c_str(), stdout);

  // A fixed number of whole sessions, the --seconds that the workload's
  // sessions take on the reference host: every run of a workload and
  // --seconds does the same work, however fast the host is today. Traced
  // runs alternate untraced and traced sessions.
  const int sessions = std::max(
      traced_run ? 4 : 3, static_cast<int>(std::lround(args.seconds / workload->session_s)));
  SessionFigures untraced, traced;
  std::vector<MetricsSnapshot> befores, afters;
  std::vector<double> rounds, wire_msgs;
  // Peak RSS is taken when the first session has finished. On kLocalTcp the
  // resident memory then climbs session after session (each session's new
  // threads keep what they freed in their own malloc arenas), by 5-8 MiB
  // per session depending on the run: too unsteady for any bound allowed,
  // so that growth is printed, not gated.
  double first_session_rss_mib = 0.0;
  std::vector<double> session_rss_mib;
  for (int i = 0; i < sessions; ++i) {
    const bool trace_this = traced_run && i % 2 == 1;
    const SessionResult session = RunSession(network, *workload, inputs, args.seed, &ops,
                                             trace_this ? &tracing : nullptr);
    correct &= CheckSession(*workload, session, reference, inputs.held_out, i == 0);
    if (i == 0) first_session_rss_mib = PeakRssMib();
    session_rss_mib.push_back(CurrentRssMib());
    if (!session.finished) break;
    (trace_this ? traced : untraced).Add(session, workload->events);
    befores.push_back(session.metrics_before);
    afters.push_back(session.report.metrics);
    const double kevents = static_cast<double>(workload->events) / 1e3;
    rounds.push_back(static_cast<double>(session.report.comm.rounds_advanced) / kevents);
    wire_msgs.push_back(static_cast<double>(session.report.comm.wire_messages) / kevents);
  }

  PrintOps(ops);
  const std::vector<Metric> end_to_end = EndToEnd(untraced, setup_s, first_session_rss_mib);
  std::printf("sessions %zu untraced, %zu traced; setup_s fastest of %zu set-ups\n",
              untraced.eps.size(), traced.eps.size(), setups.size());
  std::printf("untraced sessions ingest_eps:");
  for (double eps : untraced.eps) std::printf(" %.0f", eps);
  std::printf("\nset-ups (us):");
  for (double s : setups) std::printf(" %.0f", s * 1e6);
  std::printf("\n");
  for (const Metric& m : end_to_end) {
    std::printf("e2e %-22s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!untraced.query_us.empty()) {
    std::printf("queries %zu (Snapshot + %d Predict each): p50 %.1f us, p99 %.1f us\n",
                untraced.query_us.size(), kQueryBatch, Quantile(untraced.query_us, 0.5),
                Quantile(untraced.query_us, 0.99));
  }
  if (!untraced.lateness_us.empty()) {
    std::printf("open-loop generator lateness: p50 %.1f us, p99 %.1f us (not in "
                "query_p50_us)\n",
                Quantile(untraced.lateness_us, 0.5), Quantile(untraced.lateness_us, 0.99));
  }

  std::printf("peak RSS of the whole run %.1f MiB\n", PeakRssMib());
  if (session_rss_mib.size() > 1) {
    std::printf("resident memory after each session (MiB):");
    for (double mib : session_rss_mib) std::printf(" %.1f", mib);
    std::printf("\n  growth %.2f MiB per session after the first (not gated, see README)\n",
                (session_rss_mib.back() - session_rss_mib.front()) /
                    static_cast<double>(session_rss_mib.size() - 1));
  }
  if (!traced_run) {
    std::printf("run took %.1f s\n", static_cast<double>(MonoNanos() - run_start) * 1e-9);
    PrintResult(correct, ops, end_to_end);
    return 0;
  }

  // ---- Traced run: replays, per-layer metrics, reconciliation. ----------
  const bool tcp = workload->backend == dsgm::Backend::kLocalTcp;
  const int64_t core_events = std::min<int64_t>(workload->events, 1 << 20);
  const CoreReplay core =
      ReplayCore(network, *workload, inputs, args.seed, core_events, &replay_log);
  // The codec replay keeps every frame, and exact mode sends a 74-report
  // bundle per event, so tcp replays a short prefix; its per-event costs do
  // not change along the stream.
  const int64_t cluster_events = tcp ? (1 << 15) : workload->events;
  const ClusterReplay cl = ReplayCluster(network, *workload, inputs, args.seed,
                                         cluster_events, tcp, &replay_log);
  if (!cl.codec_ok) {
    std::printf("check codec_roundtrip: FAIL\n");
    correct = false;
  }

  const std::vector<const SpanLog*> logs = {&tracing.producer, &tracing.query, &replay_log};
  const std::map<std::string, SpanTotals> spans = SummarizeSpans(logs);
  auto span_median = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : Median(it->second.durations_ns);
  };
  auto per_op = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() || it->second.ops == 0
               ? 0.0
               : it->second.total_ns / static_cast<double>(it->second.ops);
  };

  uint64_t stalls = 0, wakeups = 0, queue_blocks = 0, compress_in = 0, compress_out = 0,
           publishes = 0;
  std::pair<uint64_t, uint64_t> publish{0, 0}, loop{0, 0};
  for (size_t i = 0; i < befores.size(); ++i) {
    stalls += CounterDelta(befores[i], afters[i], "api.lanehub.lane_full_stalls");
    wakeups += CounterDelta(befores[i], afters[i], "net.reactor.wakeups");
    queue_blocks += CounterDelta(befores[i], afters[i], "common.queue.producer_blocks") +
                    CounterDelta(befores[i], afters[i], "common.queue.consumer_blocks");
    compress_in += CounterDelta(befores[i], afters[i], "net.compress.bytes_in");
    compress_out += CounterDelta(befores[i], afters[i], "net.compress.bytes_out");
    publishes += CounterDelta(befores[i], afters[i], "cluster.coord.publishes");
    const auto p = HistogramDelta(befores[i], afters[i], "cluster.coord.publish_ns");
    const auto l = HistogramDelta(befores[i], afters[i], "net.reactor.loop_ns");
    publish.first += p.first;
    publish.second += p.second;
    loop.first += l.first;
    loop.second += l.second;
  }
  const double all_kevents =
      static_cast<double>(workload->events) * static_cast<double>(befores.size()) / 1e3;
  auto mean = [](std::pair<uint64_t, uint64_t> h) {
    return h.first == 0 ? 0.0 : static_cast<double>(h.second) / static_cast<double>(h.first);
  };

  const std::vector<Metric> per_layer = {
      {"api.build_us", span_median("api.build") / 1e3, "us"},
      {"api.push_ns", per_op("api.push"), "ns"},
      {"api.finish_ms", span_median("api.finish") / 1e6, "ms"},
      {"api.snapshot_us", span_median("api.snapshot") / 1e3, "us"},
      {"api.predict_ns", span_median("api.predict"), "ns"},
      {"api.lane_full_stalls_per_kevent", static_cast<double>(stalls) / all_kevents, "1/kevent"},
      {"core.observe_ns_per_event", core.observe_ns_per_event, "ns"},
      {"monitor.increment_ns", core.increment_ns, "ns"},
      {"cluster.site_ns_per_event", cl.site_ns_per_event, "ns"},
      {"cluster.coord_ns_per_report", cl.coord_ns_per_report, "ns"},
      {"cluster.publish_ns", mean(publish), "ns"},
      {"cluster.rounds_per_kevent", Median(rounds), "1/kevent"},
      {"cluster.wire_msgs_per_kevent", Median(wire_msgs), "1/kevent"},
      {"net.encode_ns_per_frame", cl.encode_ns_per_frame, "ns"},
      {"net.decode_ns_per_frame", cl.decode_ns_per_frame, "ns"},
      {"net.compress_ratio",
       compress_out == 0 ? 0.0 : static_cast<double>(compress_in) / static_cast<double>(compress_out),
       "ratio"},
      {"net.reactor_wakeups_per_kevent", static_cast<double>(wakeups) / all_kevents, "1/kevent"},
      {"net.reactor_loop_ns", mean(loop), "ns"},
      {"common.queue_blocks_per_kevent", static_cast<double>(queue_blocks) / all_kevents,
       "1/kevent"},
  };

  std::printf("\nself time by span (traced sessions and layer replays)\n");
  std::printf("  %-20s %9s %11s %11s %11s %11s\n", "span", "spans", "ops", "total ms",
              "self ms", "ns/op");
  for (const auto& [name, t] : spans) {
    std::printf("  %-20s %9lld %11lld %11.2f %11.2f %11.1f\n", name.c_str(),
                static_cast<long long>(t.spans), static_cast<long long>(t.ops),
                t.total_ns / 1e6, t.self_ns / 1e6,
                t.ops == 0 ? 0.0 : t.total_ns / static_cast<double>(t.ops));
  }

  // Reconciliation: the layer costs per event against the untraced CPU
  // time per event. The remainder is what no layer measurement explains.
  const double cpu = Median(untraced.cpu_ns);
  const double query_ns = untraced.query_ns_total / static_cast<double>(untraced.events);
  std::vector<std::pair<std::string, double>> terms;
  terms.emplace_back("producer thread (Push)", Median(untraced.producer_cpu_ns));
  terms.emplace_back("cluster.site", cl.site_ns_per_event);
  terms.emplace_back("cluster.coordinator", cl.coord_ns_per_report * cl.reports_per_event);
  terms.emplace_back("cluster.publish",
                     mean(publish) * static_cast<double>(publishes) / (all_kevents * 1e3));
  if (tcp) {
    terms.emplace_back("net.encode + decode",
                       (cl.encode_ns_per_frame + cl.decode_ns_per_frame) * cl.frames_per_event);
    terms.emplace_back("  net.reactor loop (overlaps decode)",
                       static_cast<double>(loop.second) / (all_kevents * 1e3));
  }
  terms.emplace_back("queries (Snapshot + Predict)", query_ns);
  double explained = 0.0;
  std::printf("\nreconciliation against cpu_ns_per_event = %.1f ns (untraced median)\n", cpu);
  for (const auto& [name, ns] : terms) {
    std::printf("  %-34s %10.1f ns/event\n", name.c_str(), ns);
    if (name.rfind("  ", 0) != 0) explained += ns;
  }
  std::printf("  %-34s %10.1f ns/event (%.1f%% of cpu_ns_per_event)\n", "unexplained remainder",
              cpu - explained, cpu > 0 ? 100.0 * (cpu - explained) / cpu : 0.0);

  const double untraced_eps = Median(untraced.eps);
  const double traced_eps = Median(traced.eps);
  std::printf("\ntracing overhead: ingest_eps %.0f untraced vs %.0f traced (%+.2f%%), "
              "medians of %zu and %zu sessions\n",
              untraced_eps, traced_eps,
              traced_eps > 0 ? 100.0 * (untraced_eps / traced_eps - 1.0) : 0.0,
              untraced.eps.size(), traced.eps.size());

  const std::string trace_path =
      args.out_dir + "/perfbench_trace_" + workload->name + ".json";
  if (WriteChromeTrace(trace_path, logs)) {
    std::printf("spans written to %s (open in ui.perfetto.dev)\n", trace_path.c_str());
  } else {
    std::printf("could not write %s\n", trace_path.c_str());
  }
  for (const Metric& m : per_layer) {
    std::printf("layer %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("run took %.1f s\n", static_cast<double>(MonoNanos() - run_start) * 1e-9);
  PrintResult(correct, ops, per_layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
