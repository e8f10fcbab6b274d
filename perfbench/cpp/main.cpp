// perfbench — the engine's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// One run: generate the inputs from the seed and set the workload up on
// them, twenty-one times over (setup_s is the median set-up), compute the
// oracle answers, warm up, then run closed-loop operations for
// --seconds, checking every answer.  With --trace 0 the last stdout line
// reports the end-to-end metrics; with --trace 1 the same loop runs with
// the benchmark's spans on, followed by the layer probes, and the last line
// reports the per-layer metrics.  Spans are written to .bench_out/spans-*.jsonl
// under the working directory.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace pb;

constexpr int kSetupRepeats = 21;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
};

constexpr const char* kOutDir = ".bench_out";

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      o.self_test = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else {
      return false;
    }
  }
  return o.self_test || (!o.workload.empty() && o.seconds > 0.0);
}

// Every per-layer metric, in report order, with its unit.  Metrics a
// workload does not exercise read 0 (see README.md).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"archive.ingest_ms", "ms"},
    {"archive.read_ns_per_pixel", "ns"},
    {"core.full_scan_ns_per_pixel", "ns"},
    {"core.combined_ms", "ms"},
    {"core.points_per_query", "count"},
    {"core.ops_per_query", "count"},
    {"core.tiles_pruned_frac", "ratio"},
    {"parallel.full_scan_ms", "ms"},
    {"parallel.efficiency", "ratio"},
    {"shard.full_scan_ms", "ms"},
    {"shard.speedup_vs_serial", "ratio"},
    {"batch.ms_per_member", "ms"},
    {"batch.speedup_vs_solo", "ratio"},
    {"pool.parallel_for_us", "us"},
    {"scheduler.queue_wait_ms", "ms"},
    {"scheduler.exec_ms", "ms"},
    {"scheduler.result_cache_hit_ratio", "ratio"},
    {"scheduler.tile_cache_hit_ratio", "ratio"},
    {"scheduler.batch_fanin_mean", "count"},
    {"onion.query_us", "us"},
    {"sproc.query_us", "us"},
    {"obs.tracer_overhead_pct", "%"},
    {"wire.encode_query_ns", "ns"},
    {"wire.decode_partial_ns", "ns"},
    {"net.wire_tax_ms", "ms"},
    {"net.connects_per_query", "count"},
    {"net.time_wait_at_start", "count"},
    {"proc.fd_growth", "count"},
    {"proc.thread_growth", "count"},
    {"proc.rss_growth_mb", "MiB"},
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += t.wrong == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(t.attempted);
  line += ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int run(const Options& o) {
  if (make_workload(o.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", o.workload.c_str());
    for (const std::string& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::size_t time_wait_at_start = read_tcp({}).time_wait;
  SpanLog spans;
  SpanLog* sp = o.trace ? &spans : nullptr;

  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    w.reset();  // the previous fleet stops before the next one starts
    std::unique_ptr<Workload> fresh = make_workload(o.workload);
    fresh->generate(o.seed);
    const std::uint64_t t0 = now_ns();
    fresh->setup(sp);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    w = std::move(fresh);
  }
  w->prepare_oracle();
  w->warm_up();
  w->mark();

  const ProcStatus before = read_proc_status();
  Tally tally;
  const MachineTicks ticks0 = read_machine_ticks();
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  tally.begin();
  w->run(t0 + static_cast<std::uint64_t>(o.seconds * 1e9), tally, sp);
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  const double cpu_s = cpu_seconds() - cpu0;
  const MachineTicks ticks1 = read_machine_ticks();
  const double steal_pct = 100.0 * static_cast<double>(ticks1.steal - ticks0.steal) /
                           static_cast<double>(std::max<std::uint64_t>(1, ticks1.total - ticks0.total));
  const ProcStatus after = read_proc_status();

  if (tally.attempted == 0 || tally.queries == 0) {
    std::fprintf(stderr, "no operation completed\n");
    return 1;
  }
  if (tally.failed != 0) {
    std::fprintf(stderr, "%llu of %llu answers failed; first: %s\n",
                 static_cast<unsigned long long>(tally.failed),
                 static_cast<unsigned long long>(tally.attempted), tally.first_failure.c_str());
  }
  // Every end-to-end figure but peak RSS is a median over the run's quieter
  // half of windows: those from which the hypervisor stole no more of the
  // machine's CPU than from the run's median window.  Per window, that is
  // throughput, CPU per query and the window's own latency percentiles.  On
  // a shared host, steal comes in bursts of seconds that slow every thread
  // and, because fewer of scan_cold's workers then contend at once, lower
  // its CPU per query; see README.md.
  std::vector<double> steal;
  for (const Tally::Window& win : tally.windows) {
    if (win.queries != 0) steal.push_back(win.steal);
  }
  const double quiet_steal = median(steal);
  std::vector<double> window_qps;
  std::vector<double> window_cpu_ms;
  std::vector<double> window_p50;
  std::vector<double> window_p90;
  for (const Tally::Window& win : tally.windows) {
    if (win.queries == 0 || win.steal > quiet_steal) continue;
    window_qps.push_back(static_cast<double>(win.queries) / win.seconds);
    window_cpu_ms.push_back(1e3 * win.cpu_s / static_cast<double>(win.queries));
    const std::vector<double> sample(tally.latency_ms.begin() + win.first_sample,
                                     tally.latency_ms.begin() + win.end_sample);
    window_p50.push_back(quantile(sample, 0.50));
    window_p90.push_back(quantile(sample, 0.90));
  }
  if (window_qps.empty()) {
    window_qps.push_back(static_cast<double>(tally.queries) / wall_s);
    window_cpu_ms.push_back(1e3 * cpu_s / static_cast<double>(tally.queries));
    window_p50.push_back(quantile(tally.latency_ms, 0.50));
    window_p90.push_back(quantile(tally.latency_ms, 0.90));
  }
  const double qps = median(window_qps);
  std::printf("# %s seed=%llu: %llu queries in %.3f s, %zu latency samples, p99_ms=%.4f "
              "(reference only), %zu windows (%zu quiet), time_wait_at_start=%zu, steal_pct=%.2f\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(tally.queries), wall_s, tally.latency_ms.size(),
              quantile(tally.latency_ms, 0.99), tally.windows.size(), window_qps.size(),
              time_wait_at_start, steal_pct);

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"qps", qps, "1/s"},
        {"p50_ms", median(window_p50), "ms"},
        {"p90_ms", median(window_p90), "ms"},
        {"cpu_ms_per_query", median(window_cpu_ms), "ms"},
        {"peak_rss_mb", after.peak_mb, "MiB"},
        {"setup_s", median(setup_s), "s"},
    };
  } else {
    Layers layers;
    for (const auto& [name, unit] : kLayerMetrics) layers[name] = 0.0;
    layers["scheduler.queue_wait_ms"] = median(tally.queue_wait_ms);
    layers["scheduler.exec_ms"] = median(tally.exec_ms);
    layers["net.time_wait_at_start"] = static_cast<double>(time_wait_at_start);
    layers["proc.fd_growth"] = static_cast<double>(after.fds - before.fds);
    layers["proc.thread_growth"] = static_cast<double>(after.threads - before.threads);
    layers["proc.rss_growth_mb"] = after.rss_mb - before.rss_mb;
    w->layers(layers, tally, spans);
    if (!w->covers_service_layers()) probe_service(o.seed, layers, spans);
    probe_layers(*w, layers, spans);
    std::error_code ec;
    std::filesystem::create_directories(kOutDir, ec);
    spans.write(std::string(kOutDir) + "/spans-" + o.workload + "-" + std::to_string(o.seed) +
                ".jsonl");
    for (const auto& [name, unit] : kLayerMetrics) metrics.push_back({name, layers[name], unit});
  }
  w.reset();
  print_result(tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
                 "       perfbench --self-test\n");
    return 2;
  }
  try {
    return o.self_test ? pb::run_self_test() : run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
