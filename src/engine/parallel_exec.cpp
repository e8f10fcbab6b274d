#include "engine/parallel_exec.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "obs/trace.hpp"

namespace mmir {

namespace {

using exec::kNegInf;

/// Stage-close annotations of a parallel executor: result shape plus the
/// merged meter totals; per-tile and per-pixel work stays on the meters.
void annotate_result(const obs::Span& span, const RasterTopK& out, const CostMeter& meter,
                     std::size_t slots) {
  if (!span.active()) return;
  span.annotate("workers", static_cast<double>(slots));
  span.annotate("hits", static_cast<double>(out.hits.size()));
  span.annotate("bad_points", static_cast<double>(out.bad_points));
  span.annotate("meter_points", static_cast<double>(meter.points()));
  span.annotate("meter_ops", static_cast<double>(meter.ops()));
  span.annotate("meter_pruned", static_cast<double>(meter.pruned()));
  span.note("status", to_string(out.status));
}

/// Parallel twin of the serial executors' efficiency annotations: the same
/// four §4.2 inputs (n, N, pixels whose evaluation began, scan-stage ops),
/// summed across workers, so obs::ExplainReport reads one vocabulary for
/// both execution paths.
void annotate_efficiency(const obs::Span& span, const TiledArchive& archive,
                         std::uint64_t model_terms, std::uint64_t pixels_visited,
                         std::uint64_t scan_ops) {
  if (!span.active()) return;
  span.annotate("total_pixels",
                static_cast<double>(archive.width()) * static_cast<double>(archive.height()));
  span.annotate("model_terms", static_cast<double>(model_terms));
  span.annotate("pixels_visited", static_cast<double>(pixels_visited));
  span.annotate("scan_ops", static_cast<double>(scan_ops));
}

/// Monotone shared pruning threshold: a relaxed atomic maximum.  Readers may
/// observe a stale (lower) value, which only weakens pruning — never
/// soundness — so no ordering stronger than relaxed is needed.
class SharedThreshold {
 public:
  [[nodiscard]] double get() const noexcept { return value_.load(std::memory_order_relaxed); }

  void raise(double candidate) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (candidate > current &&
           !value_.compare_exchange_weak(current, candidate, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double> value_{kNegInf};
};

/// Per-worker accumulation state; one slot per pool worker + caller, indexed
/// by the parallel_for slot so no synchronization is needed until the merge.
/// Each slot owns its cache lines: the meter and tally are written per pixel.
struct alignas(64) WorkerState {
  WorkerState(std::size_t k, std::size_t bands) : top(k), scratch(bands) {}
  TopK<RasterHit> top;
  CostMeter meter;
  exec::ScanTally tally;
  std::vector<double> scratch;  // full-model pixel gather buffer
  double truncation_bound = kNegInf;
};
static_assert(alignof(WorkerState) >= 64, "adjacent workers' per-pixel meters must not share a line");

/// Merges per-worker heaps/meters/tallies into the final result, reducing
/// the meters with CostMeter::merge.  The global heap re-offers every local
/// entry under its original pixel rank; local heaps hold the canonical top-K
/// of their partition, so the union contains the canonical global top-K and
/// the merge is byte-identical to a serial scan.  Returns the summed tally.
exec::ScanTally merge_workers(std::vector<WorkerState>& workers, std::size_t k, RasterTopK& out,
                              CostMeter& meter) {
  TopK<RasterHit> merged(k);
  exec::ScanTally tally;
  for (WorkerState& w : workers) {
    for (auto& entry : w.top.take_sorted()) {
      merged.offer_ranked(entry.score, entry.sequence, entry.item);
    }
    meter.merge(w.meter);
    tally += w.tally;
  }
  out.bad_points += tally.bad_points;
  out.hits = exec::finalize(merged);
  return tally;
}

/// Row-band grain: a few chunks per slot for load balance without shredding
/// cache locality.
std::size_t row_grain(std::size_t height, std::size_t slots) {
  return std::max<std::size_t>(1, height / (slots * 4));
}

/// Claims tiles best-bound-first off `cursor` and scans each with `scan`
/// (signature: void(tile_index, WorkerState&)).  Returns via `state`
/// the bound of the tile being examined when the context stopped.
template <typename ScanTileFn>
void tile_claim_loop(const TiledArchive& archive, const exec::TileBounds& tb,
                     std::atomic<std::size_t>& cursor, const SharedThreshold& shared,
                     QueryContext& ctx, WorkerState& state, ScanTileFn&& scan) {
  const auto tiles = archive.tiles();
  while (!ctx.stopped()) {
    const std::size_t pos = cursor.fetch_add(1, std::memory_order_relaxed);
    if (pos >= tb.order.size()) return;
    const std::size_t t = tb.order[pos];
    const double threshold = shared.get();
    if (threshold > kNegInf && tb.bounds[t].hi < threshold) {
      // Sound prune: threshold > -inf means some worker's heap is full, so
      // the final global K-th best is at least `threshold`.  Strictly-below
      // only: a tile tying the cross-worker threshold could still win the
      // canonical rank tie-break, so it needs the local-evidence check below.
      state.meter.add_pruned();
      continue;
    }
    if (exec::screen_tile(state.top, tb.bounds[t].hi, exec::tile_min_rank(archive, tiles[t])) !=
        exec::TilePrune::kScan) {
      // Local tie/threshold evidence: this worker's own full heap certifies
      // the tile out (prune-one semantics — later claims re-check).
      state.meter.add_pruned();
      continue;
    }
    scan(t, state);
    if (ctx.stopped()) {
      // This tile may be partially examined; its bound covers the remainder.
      state.truncation_bound = std::max(state.truncation_bound, tb.bounds[t].hi);
      return;
    }
  }
}

/// Missed-score bound for a truncated tile-order run: the max bound over
/// every tile not fully examined — each worker's in-flight tile plus the
/// best unclaimed tile (claim order is descending bound, so the first
/// unclaimed position dominates all later ones).
double tile_truncation_bound(const std::vector<WorkerState>& workers, const exec::TileBounds& tb,
                             std::size_t claimed) {
  double bound = kNegInf;
  for (const WorkerState& w : workers) bound = std::max(bound, w.truncation_bound);
  if (claimed < tb.order.size()) bound = std::max(bound, tb.bounds[tb.order[claimed]].hi);
  return bound;
}

}  // namespace

RasterTopK parallel_full_scan_top_k(const TiledArchive& archive, const RasterModel& model,
                                    std::size_t k, QueryContext& ctx, CostMeter& meter,
                                    ThreadPool& pool) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.bands() == archive.band_count());
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "parallel_full_scan");
  RasterTopK out;
  std::vector<WorkerState> workers(pool.slot_count(), WorkerState(k, archive.band_count()));
  const std::uint64_t ops_before = meter.ops();

  pool.parallel_for(0, archive.height(), row_grain(archive.height(), pool.slot_count()),
                    [&](std::size_t y0, std::size_t y1, std::size_t slot) {
                      if (ctx.stopped()) return;
                      WorkerState& w = workers[slot];
                      exec::scan_rect_full(archive, model, 0, archive.width(), y0, y1, w.top,
                                           w.scratch, ctx, w.meter, w.tally);
                    });

  const exec::ScanTally tally = merge_workers(workers, k, out, meter);
  if (ctx.stopped()) {
    out.status = ctx.stop_reason();
    out.missed_bound = exec::archive_score_bound(archive, model);
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  annotate_efficiency(span, archive, model.ops_per_evaluation(), tally.pixels,
                      meter.ops() - ops_before);
  annotate_result(span, out, meter, pool.slot_count());
  return out;
}

RasterTopK parallel_progressive_model_top_k(const TiledArchive& archive,
                                            const ProgressiveLinearModel& model, std::size_t k,
                                            QueryContext& ctx, CostMeter& meter,
                                            ThreadPool& pool) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.model().dim() == archive.band_count());
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "parallel_progressive_model");
  RasterTopK out;
  std::vector<WorkerState> workers(pool.slot_count(), WorkerState(k, archive.band_count()));
  SharedThreshold shared;
  const std::uint64_t ops_before = meter.ops();

  pool.parallel_for(
      0, archive.height(), row_grain(archive.height(), pool.slot_count()),
      [&](std::size_t y0, std::size_t y1, std::size_t slot) {
        if (ctx.stopped()) return;
        WorkerState& w = workers[slot];
        exec::scan_rect_staged(
            archive, model, 0, archive.width(), y0, y1, w.top,
            [&] { return std::max(w.top.threshold(), shared.get()); },
            [&] {
              if (w.top.full()) shared.raise(w.top.threshold());
            },
            ctx, w.meter, w.tally);
      });

  const exec::ScanTally tally = merge_workers(workers, k, out, meter);
  if (ctx.stopped()) {
    out.status = ctx.stop_reason();
    out.missed_bound = model.model().evaluate_interval(archive.band_ranges()).hi;
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  annotate_efficiency(span, archive, model.order().size(), tally.pixels,
                      meter.ops() - ops_before);
  annotate_result(span, out, meter, pool.slot_count());
  return out;
}

RasterTopK parallel_tile_screened_top_k(const TiledArchive& archive, const RasterModel& model,
                                        std::size_t k, QueryContext& ctx, CostMeter& meter,
                                        ThreadPool& pool, const exec::TileBounds* precomputed) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.bands() == archive.band_count());
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "parallel_tile_screened");
  RasterTopK out;
  const auto tiles = archive.tiles();
  const std::uint64_t ops_per_pixel = model.ops_per_evaluation();

  exec::TileBounds local;
  const exec::TileBounds* tb = precomputed;
  if (tb == nullptr) {
    // Metadata pass: one bound evaluation per tile (charged like the serial
    // executor; a cached-bounds run skips both the work and the charge).
    if (!ctx.charge(tiles.size() * ops_per_pixel)) {
      out.status = ctx.stop_reason();
      out.missed_bound = exec::archive_score_bound(archive, model);
      annotate_result(span, out, meter, pool.slot_count());
      return out;
    }
    obs::Span screen_span = obs::Span::child_of(&span, "metadata_screen");
    local = exec::compute_tile_bounds(archive, model, meter);
    screen_span.annotate("tiles", static_cast<double>(local.bounds.size()));
    screen_span.finish();
    tb = &local;
  } else {
    span.note("tile_bounds", "cached");
  }

  std::vector<WorkerState> workers(pool.slot_count(), WorkerState(k, archive.band_count()));
  SharedThreshold shared;
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> tiles_scanned{0};
  const std::uint64_t ops_before = meter.ops();

  obs::Span scan_span = obs::Span::child_of(&span, "full_model_scan");
  pool.parallel_for(0, pool.slot_count(), 1, [&](std::size_t, std::size_t, std::size_t slot) {
    tile_claim_loop(archive, *tb, cursor, shared, ctx, workers[slot],
                    [&](std::size_t t, WorkerState& w) {
                      const TileSummary& tile = tiles[t];
                      tiles_scanned.fetch_add(1, std::memory_order_relaxed);
                      exec::scan_rect_full(archive, model, tile.x0, tile.x0 + tile.width, tile.y0,
                                           tile.y0 + tile.height, w.top, w.scratch, ctx,
                                           w.meter, w.tally);
                      if (w.top.full()) shared.raise(w.top.threshold());
                    });
  });
  const std::size_t scanned = tiles_scanned.load(std::memory_order_relaxed);
  scan_span.annotate("tiles_scanned", static_cast<double>(scanned));
  scan_span.annotate("tiles_pruned", static_cast<double>(tb->order.size() - scanned));
  scan_span.finish();

  const exec::ScanTally tally = merge_workers(workers, k, out, meter);
  if (ctx.stopped()) {
    out.status = ctx.stop_reason();
    out.missed_bound =
        tile_truncation_bound(workers, *tb, std::min(cursor.load(), tb->order.size()));
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  annotate_efficiency(span, archive, ops_per_pixel, tally.pixels, meter.ops() - ops_before);
  annotate_result(span, out, meter, pool.slot_count());
  return out;
}

RasterTopK parallel_progressive_combined_top_k(const TiledArchive& archive,
                                               const ProgressiveLinearModel& model, std::size_t k,
                                               QueryContext& ctx, CostMeter& meter,
                                               ThreadPool& pool,
                                               const exec::TileBounds* precomputed) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.model().dim() == archive.band_count());
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "parallel_progressive_combined");
  RasterTopK out;
  const LinearRasterModel raster_model(model.model());
  const auto tiles = archive.tiles();

  exec::TileBounds local;
  const exec::TileBounds* tb = precomputed;
  if (tb == nullptr) {
    if (!ctx.charge(tiles.size() * raster_model.ops_per_evaluation())) {
      out.status = ctx.stop_reason();
      out.missed_bound = exec::archive_score_bound(archive, raster_model);
      annotate_result(span, out, meter, pool.slot_count());
      return out;
    }
    obs::Span screen_span = obs::Span::child_of(&span, "metadata_screen");
    local = exec::compute_tile_bounds(archive, raster_model, meter);
    screen_span.annotate("tiles", static_cast<double>(local.bounds.size()));
    screen_span.finish();
    tb = &local;
  } else {
    span.note("tile_bounds", "cached");
  }

  std::vector<WorkerState> workers(pool.slot_count(), WorkerState(k, archive.band_count()));
  SharedThreshold shared;
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> tiles_scanned{0};
  const std::uint64_t ops_before = meter.ops();

  obs::Span scan_span = obs::Span::child_of(&span, "staged_model_scan");
  pool.parallel_for(0, pool.slot_count(), 1, [&](std::size_t, std::size_t, std::size_t slot) {
    tile_claim_loop(
        archive, *tb, cursor, shared, ctx, workers[slot], [&](std::size_t t, WorkerState& w) {
          const TileSummary& tile = tiles[t];
          tiles_scanned.fetch_add(1, std::memory_order_relaxed);
          exec::scan_rect_staged(
              archive, model, tile.x0, tile.x0 + tile.width, tile.y0, tile.y0 + tile.height,
              w.top, [&] { return std::max(w.top.threshold(), shared.get()); },
              [&] {
                if (w.top.full()) shared.raise(w.top.threshold());
              },
              ctx, w.meter, w.tally);
        });
  });
  const std::size_t scanned = tiles_scanned.load(std::memory_order_relaxed);
  scan_span.annotate("tiles_scanned", static_cast<double>(scanned));
  scan_span.annotate("tiles_pruned", static_cast<double>(tb->order.size() - scanned));
  scan_span.finish();

  const exec::ScanTally tally = merge_workers(workers, k, out, meter);
  if (ctx.stopped()) {
    out.status = ctx.stop_reason();
    out.missed_bound =
        tile_truncation_bound(workers, *tb, std::min(cursor.load(), tb->order.size()));
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  annotate_efficiency(span, archive, model.order().size(), tally.pixels,
                      meter.ops() - ops_before);
  annotate_result(span, out, meter, pool.slot_count());
  return out;
}

}  // namespace mmir
