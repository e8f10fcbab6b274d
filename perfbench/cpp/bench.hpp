#pragma once
// Shared declarations of the benchmark: the raster inputs every
// workload builds, the tally of a timed window, and the workload interface.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "archive/tiled.hpp"
#include "core/raster_model.hpp"
#include "data/grid.hpp"
#include "linear/progressive.hpp"
#include "oracle.hpp"
#include "probe.hpp"

namespace mmir::net {
class Router;
class ShardServer;
}  // namespace mmir::net

namespace mmir::obs {
class MetricsRegistry;
}  // namespace mmir::obs

namespace pb {

inline constexpr std::size_t kTopK = 10;
inline constexpr std::size_t kBands = 4;
inline constexpr std::size_t kTile = 16;

/// A generated archive plus a pool of linear models with their oracle
/// answers.  Grids copy the planes; the oracle reads the planes.
struct RasterInputs {
  Planes planes;
  std::vector<mmir::Grid> grids;
  std::vector<mmir::Interval> ranges;
  std::unique_ptr<mmir::TiledArchive> archive;
  std::vector<ModelSpec> models;
  std::vector<std::unique_ptr<mmir::LinearRasterModel>> raster;
  std::vector<std::unique_ptr<mmir::ProgressiveLinearModel>> progressive;
  std::vector<std::vector<RefEntry>> refs;  ///< filled by compute_refs()

  /// Band planes and model specs from the seed.  `purpose` separates model
  /// pools of one seed.
  void generate(std::uint64_t seed, std::uint64_t purpose, std::size_t side, std::size_t pool);
  /// Grids, archive ingest (span "archive.ingest") and engine models from
  /// the generated inputs.
  void build(SpanLog* spans);
  void compute_refs();
  [[nodiscard]] std::string check(const mmir::RasterTopK& r, std::size_t model) const {
    return check_raster(r, planes, models[model], refs[model]);
  }
  [[nodiscard]] const mmir::LinearModel& linear(std::size_t i) const {
    return raster[i]->linear();
  }
};

/// What one timed window produced.  Thread-safe: callers record into it
/// concurrently.
struct Tally {
  std::mutex mutex;
  std::uint64_t attempted = 0;  ///< checked answers
  std::uint64_t failed = 0;     ///< answers that were not complete or not correct
  std::uint64_t wrong = 0;      ///< the subset of `failed` that disagreed with the oracle
  std::uint64_t queries = 0;    ///< completed queries (qps numerator)
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms;  ///< scheduler outcomes, where the workload has them
  std::vector<double> exec_ms;
  std::string first_failure;

  /// One measurement window: it closes at the first operation boundary at
  /// least kWindowNs after it opened, so its query count is exact.  Its
  /// latency samples are latency_ms[first_sample, end_sample).  `steal` is
  /// the share of the machine's CPU time the hypervisor stole meanwhile.
  struct Window {
    double seconds = 0.0;
    double cpu_s = 0.0;
    std::uint64_t queries = 0;
    std::size_t first_sample = 0;
    std::size_t end_sample = 0;
    double steal = 0.0;
  };
  static constexpr std::uint64_t kWindowNs = 1'000'000'000ULL;
  std::vector<Window> windows;

  /// Opens the first window.
  void begin() {
    std::lock_guard<std::mutex> lock(mutex);
    mark_ns_ = now_ns();
    mark_cpu_ = cpu_seconds();
    mark_queries_ = queries;
    mark_sample_ = latency_ms.size();
    mark_ticks_ = read_machine_ticks();
  }

  /// Records one operation's latency sample and the queries it completed.
  void op(double latency, std::uint64_t completed) {
    std::lock_guard<std::mutex> lock(mutex);
    latency_ms.push_back(latency);
    queries += completed;
  }

  /// Marks the end of an operation (or round); closes the window if due.
  void boundary() {
    std::lock_guard<std::mutex> lock(mutex);
    const std::uint64_t now = now_ns();
    if (mark_ns_ == 0 || now - mark_ns_ < kWindowNs) return;
    const double cpu = cpu_seconds();
    const MachineTicks ticks = read_machine_ticks();
    const std::uint64_t total = ticks.total - mark_ticks_.total;
    const double steal =
        total == 0 ? 0.0
                   : static_cast<double>(ticks.steal - mark_ticks_.steal) / static_cast<double>(total);
    windows.push_back({static_cast<double>(now - mark_ns_) / 1e9, cpu - mark_cpu_,
                       queries - mark_queries_, mark_sample_, latency_ms.size(), steal});
    mark_ns_ = now;
    mark_cpu_ = cpu;
    mark_queries_ = queries;
    mark_sample_ = latency_ms.size();
    mark_ticks_ = ticks;
  }

  /// Records one checked answer; `reason` empty = correct.
  void answer(const std::string& reason, bool incomplete_status) {
    std::lock_guard<std::mutex> lock(mutex);
    ++attempted;
    if (reason.empty()) return;
    ++failed;
    if (!incomplete_status) ++wrong;
    if (first_failure.empty()) first_failure = reason;
  }

 private:
  std::uint64_t mark_ns_ = 0;
  double mark_cpu_ = 0.0;
  std::uint64_t mark_queries_ = 0;
  std::size_t mark_sample_ = 0;
  MachineTicks mark_ticks_;
};

/// True when the checker's reason is about the answer's status rather than
/// its content.
inline bool status_failure(const std::string& reason) {
  return reason.rfind("status ", 0) == 0;
}

/// Per-layer metrics by name.
using Layers = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// The benchmark's own inputs, made from the seed.  Untimed, like the
  /// oracle: it is not the engine's work.
  virtual void generate(std::uint64_t seed) = 0;
  /// Ingest, index builds and engine or fleet start from the generated
  /// inputs: setup_s.
  virtual void setup(SpanLog* spans) = 0;
  /// Oracle answers for every query the workload can send (untimed).
  virtual void prepare_oracle() = 0;
  /// First queries, lazy layouts, cache fill.
  virtual void warm_up() = 0;
  /// Whole rounds of closed-loop operations until `stop_ns`.
  virtual void run(std::uint64_t stop_ns, Tally& tally, SpanLog* spans) = 0;
  /// Inputs the generic layer probes run on.
  [[nodiscard]] virtual const RasterInputs& raster_inputs() const = 0;
  /// True when the workload's queries run the combined executor.
  [[nodiscard]] virtual bool combined_mode() const = 0;
  /// Snapshot taken after warm-up, before the timed window.
  virtual void mark() {}
  /// Workload-specific per-layer metrics (traced run only).
  virtual void layers(Layers& out, const Tally& tally, SpanLog& spans) = 0;
  /// True when layers() measures the service path: caches, tracer, Onion,
  /// SPROC and the router fleet.
  [[nodiscard]] virtual bool covers_service_layers() const { return false; }
};

/// Four in-process shard servers on loopback TCP, each with a one-dispatcher
/// engine, and a net::Router scattering combined queries over a 4-shard
/// row-band layout of `in`'s archive.
class Fleet {
 public:
  static constexpr std::size_t kShards = 4;
  explicit Fleet(const RasterInputs& in);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  /// Runs model `model` through the router; returns the merged answer.
  [[nodiscard]] mmir::RasterTopK query(std::size_t model);
  /// Loopback connections to the servers seen in /proc/net/tcp.
  [[nodiscard]] std::size_t connections() const;

 private:
  static constexpr std::uint64_t kArchiveId = 1;
  const RasterInputs& in_;
  std::unique_ptr<mmir::obs::MetricsRegistry> registry_;
  std::vector<std::unique_ptr<mmir::net::ShardServer>> servers_;
  std::unique_ptr<mmir::net::Router> router_;
  std::set<std::uint16_t> ports_;
};

/// Net-layer probe: a fleet over `in`'s archive; sets net.wire_tax_ms and
/// net.connects_per_query.
void probe_fleet(const RasterInputs& in, Layers& out, SpanLog& spans);

/// Service-layer probe for workloads that do not run the service path: a
/// short serve_mix run on `seed` (answers checked; a failed answer
/// throws), then serve_mix's per-layer metrics.
void probe_service(std::uint64_t seed, Layers& out, SpanLog& spans);

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generic layer probes on the workload's raster inputs.
void probe_layers(const Workload& w, Layers& out, SpanLog& spans);

int run_self_test();

}  // namespace pb
