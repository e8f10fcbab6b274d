// Generic per-layer probes of a traced run.  Each call into a layer's public
// function is wrapped in one of the benchmark's own spans; the metrics are
// read back from those spans.  Every probe runs on the workload's own
// archive and models.

#include "archive/sharded.hpp"
#include "bench.hpp"
#include "core/progressive_exec.hpp"
#include "engine/batch_exec.hpp"
#include "engine/parallel_exec.hpp"
#include "engine/shard_exec.hpp"
#include "engine/thread_pool.hpp"
#include "net/wire.hpp"
#include "obs/explain.hpp"
#include "obs/trace.hpp"

namespace pb {

namespace {

constexpr std::size_t kProbeModels = 8;
constexpr std::size_t kProbeShards = 4;
constexpr std::size_t kBatchFanIn = 8;
volatile double g_sink = 0.0;

/// Median duration (ms) of the spans named `name`.
double med_ms(const SpanLog& spans, const char* name) { return median(spans.durations_ms(name)); }

}  // namespace

void probe_layers(const Workload& w, Layers& out, SpanLog& spans) {
  const RasterInputs& in = w.raster_inputs();
  const mmir::TiledArchive& archive = *in.archive;
  const double pixels = static_cast<double>(archive.pixel_count());
  const std::size_t models = std::min(kProbeModels, in.models.size());

  out["archive.ingest_ms"] = med_ms(spans, "archive.ingest");

  // Plane reads: one read_pixel per pixel, whole archive.
  std::vector<double> px(archive.band_count());
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    mmir::CostMeter meter;
    SpanLog::Scope s(&spans, "archive.read_sweep");
    for (std::size_t y = 0; y < archive.height(); ++y) {
      for (std::size_t x = 0; x < archive.width(); ++x) {
        archive.read_pixel(x, y, px, meter);
        sink += px[0];
      }
    }
  }
  out["archive.read_ns_per_pixel"] = 1e6 * med_ms(spans, "archive.read_sweep") / pixels;

  // Serial executors: the kernel and the work counts.
  double points = 0.0;
  double ops = 0.0;
  double pruned_frac = 0.0;
  for (std::size_t m = 0; m < models; ++m) {
    {
      mmir::QueryContext ctx;
      mmir::CostMeter meter;
      SpanLog::Scope s(&spans, "core.full_scan");
      (void)mmir::full_scan_top_k(archive, *in.raster[m], kTopK, ctx, meter);
      if (!w.combined_mode()) {
        points += static_cast<double>(meter.points());
        ops += static_cast<double>(meter.ops());
      }
    }
    {
      mmir::QueryContext ctx;
      mmir::CostMeter meter;
      SpanLog::Scope s(&spans, "core.combined");
      (void)mmir::progressive_combined_top_k(archive, *in.progressive[m], kTopK, ctx, meter);
      if (w.combined_mode()) {
        points += static_cast<double>(meter.points());
        ops += static_cast<double>(meter.ops());
      }
    }
    // pd from the engine's own EXPLAIN of one traced combined run.
    mmir::obs::Trace trace("raster", m + 1);
    {
      mmir::obs::Span root(&trace, "query");
      mmir::QueryContext ctx;
      ctx.with_span(&root);
      mmir::CostMeter meter;
      (void)mmir::progressive_combined_top_k(archive, *in.progressive[m], kTopK, ctx, meter);
    }
    const mmir::obs::ExplainReport report = mmir::obs::ExplainReport::from_trace(trace);
    if (report.has_efficiency && report.efficiency.total_pixels > 0.0) {
      pruned_frac += 1.0 - report.efficiency.pixels_visited / report.efficiency.total_pixels;
    }
  }
  const double serial_full_ms = med_ms(spans, "core.full_scan");
  out["core.full_scan_ns_per_pixel"] = 1e6 * serial_full_ms / pixels;
  out["core.combined_ms"] = med_ms(spans, "core.combined");
  out["core.points_per_query"] = points / static_cast<double>(models);
  out["core.ops_per_query"] = ops / static_cast<double>(models);
  out["core.tiles_pruned_frac"] = pruned_frac / static_cast<double>(models);

  // Tile-parallel and sharded executors on a pool of 3 workers + caller.
  mmir::ThreadPool pool(3);
  const mmir::ShardedArchive sharded(archive, kProbeShards, mmir::ShardPolicy::kRowBands);
  for (std::size_t m = 0; m < models; ++m) {
    {
      mmir::QueryContext ctx;
      mmir::CostMeter meter;
      SpanLog::Scope s(&spans, "parallel.full_scan");
      (void)mmir::parallel_full_scan_top_k(archive, *in.raster[m], kTopK, ctx, meter, pool);
    }
    {
      mmir::QueryContext ctx;
      mmir::CostMeter meter;
      SpanLog::Scope s(&spans, "shard.full_scan");
      (void)mmir::sharded_full_scan_top_k(sharded, *in.raster[m], kTopK, ctx, meter, pool);
    }
  }
  const double par_ms = med_ms(spans, "parallel.full_scan");
  const double shard_ms = med_ms(spans, "shard.full_scan");
  out["parallel.full_scan_ms"] = par_ms;
  out["parallel.efficiency"] =
      serial_full_ms / (par_ms * static_cast<double>(pool.slot_count()));
  out["shard.full_scan_ms"] = shard_ms;
  out["shard.speedup_vs_serial"] = serial_full_ms / shard_ms;

  // Shared-scan batch of full scans, one member per model.
  const std::size_t fan_in = std::min(kBatchFanIn, in.models.size());
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<mmir::QueryContext> ctxs(fan_in);
    std::vector<mmir::CostMeter> meters(fan_in);
    std::vector<mmir::BatchMemberSpec> members(fan_in);
    for (std::size_t i = 0; i < fan_in; ++i) {
      members[i].mode = mmir::BatchScanMode::kFullScan;
      members[i].model = in.raster[i].get();
      members[i].k = kTopK;
      members[i].ctx = &ctxs[i];
      members[i].meter = &meters[i];
    }
    SpanLog::Scope s(&spans, "batch.scan");
    (void)mmir::batch_scan(archive, members);
  }
  const double per_member = med_ms(spans, "batch.scan") / static_cast<double>(fan_in);
  out["batch.ms_per_member"] = per_member;
  out["batch.speedup_vs_solo"] = serial_full_ms / per_member;

  // Pool dispatch: an empty body over every slot.
  for (int rep = 0; rep < 2000; ++rep) {
    SpanLog::Scope s(&spans, "pool.parallel_for");
    pool.parallel_for(0, pool.slot_count(), 1, [](std::size_t, std::size_t, std::size_t) {});
  }
  out["pool.parallel_for_us"] = 1e3 * med_ms(spans, "pool.parallel_for");

  // Wire codec on a query for this workload's first model and a ten-hit
  // partial answer.
  mmir::net::QuerySpec spec;
  spec.query_id = 1;
  spec.archive_id = 1;
  spec.shard_count = kProbeShards;
  spec.mode = 3;
  spec.k = kTopK;
  spec.bias = in.models[0].bias;
  spec.weights = in.models[0].w;
  for (std::size_t b = 0; b < kBands; ++b) spec.names.push_back("b" + std::to_string(b));
  mmir::net::WirePartial partial;
  partial.query_id = 1;
  {
    mmir::QueryContext ctx;
    mmir::CostMeter meter;
    partial.partial.result =
        mmir::progressive_combined_top_k(archive, *in.progressive[0], kTopK, ctx, meter);
  }
  const std::vector<std::uint8_t> payload = mmir::net::encode_partial(partial);
  constexpr int kWireReps = 2000;
  for (int rep = 0; rep < 10; ++rep) {
    {
      SpanLog::Scope s(&spans, "wire.encode_query_x2000");
      for (int i = 0; i < kWireReps; ++i) {
        sink += static_cast<double>(mmir::net::encode_query(spec).size());
      }
    }
    {
      SpanLog::Scope s(&spans, "wire.decode_partial_x2000");
      for (int i = 0; i < kWireReps; ++i) {
        sink += static_cast<double>(mmir::net::decode_partial(payload).partial.result.hits.size());
      }
    }
  }
  out["wire.encode_query_ns"] = 1e6 * med_ms(spans, "wire.encode_query_x2000") / kWireReps;
  out["wire.decode_partial_ns"] = 1e6 * med_ms(spans, "wire.decode_partial_x2000") / kWireReps;

  g_sink = sink;  // keeps the timed reads and codec calls observable
}

}  // namespace pb
