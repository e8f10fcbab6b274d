// Whole-pixel grants (QueryContext::grant) and the scan kernels built on
// them.
//
// Unit tests pin the grant contract: partial grants at the budget edge,
// latching, spent() never above budget(), exact spent() on both sides of a
// parent/child chain, deadline / cancel reaction within one check interval,
// and exact totals under 8 concurrent granting threads.
//
// The trip-point sweep runs the serial full-scan and tile-screened
// executors (and the scan_rect_full kernel itself) at every op budget from 0
// to past a full scan, against a per-pixel reference loop written here: the
// results, spent(), CostMeter totals and ScanTally must match it exactly.
// The tile-parallel and sharded executors at 1/2/4/8 threads must certify a
// sound prefix of the exact answer, and their spent() must equal the work
// they actually scanned.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "archive/sharded.hpp"
#include "core/exec_kernels.hpp"
#include "core/progressive_exec.hpp"
#include "core/query_context.hpp"
#include "data/scene.hpp"
#include "engine/parallel_exec.hpp"
#include "engine/shard_exec.hpp"
#include "engine/thread_pool.hpp"
#include "linear/model.hpp"
#include "util/rng.hpp"

namespace mmir {
namespace {

// ------------------------------------------------------------ grant contract

TEST(QueryContextGrant, UnboundedGrantsEverything) {
  QueryContext ctx;
  EXPECT_EQ(ctx.grant(4, 1000), 1000u);
  EXPECT_EQ(ctx.spent(), 4000u);
  EXPECT_EQ(ctx.grant(4, 0), 0u);
  EXPECT_EQ(ctx.spent(), 4000u);
  EXPECT_FALSE(ctx.stopped());
}

TEST(QueryContextGrant, PartialGrantAtBudgetEdge) {
  QueryContext exact;
  exact.with_op_budget(12);
  EXPECT_EQ(exact.grant(3, 4), 4u);  // exactly fits: not a short grant
  EXPECT_FALSE(exact.stopped());
  EXPECT_EQ(exact.spent(), 12u);
  EXPECT_EQ(exact.grant(3, 1), 0u);
  EXPECT_EQ(exact.stop_reason(), ResultStatus::kTruncatedBudget);
  EXPECT_EQ(exact.spent(), 12u);

  // A budget that is not a multiple of the pixel cost: the remainder that
  // cannot pay for a whole pixel stays unspent.
  QueryContext ragged;
  ragged.with_op_budget(10);
  EXPECT_EQ(ragged.grant(3, 5), 3u);
  EXPECT_EQ(ragged.spent(), 9u);
  EXPECT_EQ(ragged.remaining(), 1u);
  EXPECT_EQ(ragged.stop_reason(), ResultStatus::kTruncatedBudget);

  QueryContext small;
  small.with_op_budget(10);
  EXPECT_EQ(small.grant(4, 1), 1u);
  EXPECT_EQ(small.grant(4, 1), 1u);
  EXPECT_FALSE(small.stopped());
  EXPECT_EQ(small.grant(4, 1), 0u);
  EXPECT_EQ(small.spent(), 8u);
  EXPECT_TRUE(small.stopped());

  QueryContext zero;
  zero.with_op_budget(0);
  EXPECT_EQ(zero.grant(1, 1), 0u);
  EXPECT_EQ(zero.spent(), 0u);
  EXPECT_EQ(zero.stop_reason(), ResultStatus::kTruncatedBudget);
}

TEST(QueryContextGrant, ShortGrantLatches) {
  QueryContext ctx;
  ctx.with_op_budget(100);
  EXPECT_EQ(ctx.grant(7, 100), 14u);  // 98 units
  ASSERT_TRUE(ctx.stopped());
  // Two units remain, but the latch refuses even work that would fit.
  EXPECT_EQ(ctx.grant(1, 1), 0u);
  EXPECT_FALSE(ctx.charge(1));
  EXPECT_TRUE(ctx.expired());
  EXPECT_EQ(ctx.spent(), 98u);
  EXPECT_EQ(ctx.stop_reason(), ResultStatus::kTruncatedBudget);
}

TEST(QueryContextGrant, SpentNeverExceedsBudget) {
  Rng rng(17);
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t budget = rng.uniform_int(500);
    QueryContext ctx;
    ctx.with_op_budget(budget);
    std::uint64_t granted_units = 0;
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t units = 1 + rng.uniform_int(9);
      const std::uint64_t pixels = rng.uniform_int(30);
      const std::uint64_t g = i % 3 == 0 ? (ctx.charge(units) ? 1 : 0) * units
                                         : ctx.grant(units, pixels) * units;
      granted_units += g;
      ASSERT_LE(ctx.spent(), budget) << "round " << round;
      ASSERT_EQ(ctx.spent(), granted_units) << "round " << round;
    }
  }
}

TEST(QueryContextGrant, ChildRefundsWhatItsOwnBudgetRefuses) {
  QueryContext parent;
  parent.with_op_budget(100);
  QueryContext child;
  child.with_parent(&parent).with_op_budget(30);
  EXPECT_EQ(child.grant(4, 10), 7u);  // own limit: 30 / 4
  EXPECT_EQ(child.spent(), 28u);
  EXPECT_EQ(parent.spent(), 28u);  // 40 forwarded, 12 refunded
  EXPECT_EQ(child.stop_reason(), ResultStatus::kTruncatedBudget);
  EXPECT_FALSE(parent.stopped());

  // A sibling keeps drawing on what the refused child gave back.
  QueryContext sibling;
  sibling.with_parent(&parent);
  EXPECT_EQ(sibling.grant(4, 100), 18u);  // (100 - 28) / 4
  EXPECT_EQ(parent.spent(), 100u);
  EXPECT_EQ(sibling.spent(), 72u);
  EXPECT_EQ(parent.stop_reason(), ResultStatus::kTruncatedBudget);
  EXPECT_EQ(sibling.stop_reason(), ResultStatus::kTruncatedBudget);
}

TEST(QueryContextGrant, ParentShortGrantLatchesBothSides) {
  QueryContext parent;
  parent.with_op_budget(20);
  QueryContext child;
  child.with_parent(&parent);
  EXPECT_EQ(child.grant(3, 10), 6u);
  EXPECT_EQ(parent.spent(), 18u);
  EXPECT_EQ(child.spent(), 18u);
  EXPECT_TRUE(parent.stopped());
  EXPECT_EQ(child.stop_reason(), ResultStatus::kTruncatedBudget);
  EXPECT_EQ(child.grant(3, 1), 0u);
  EXPECT_EQ(parent.spent(), 18u);
}

TEST(QueryContextGrant, RefundsTravelTheWholeChain) {
  QueryContext root;
  root.with_op_budget(1000);
  QueryContext middle;
  middle.with_parent(&root).with_op_budget(50);
  QueryContext leaf;
  leaf.with_parent(&middle).with_op_budget(20);
  EXPECT_EQ(leaf.grant(7, 10), 2u);
  EXPECT_EQ(leaf.spent(), 14u);
  EXPECT_EQ(middle.spent(), 14u);
  EXPECT_EQ(root.spent(), 14u);
  EXPECT_TRUE(middle.stopped());  // its own grant to the leaf was short (7 of 10)
  EXPECT_FALSE(root.stopped());
}

TEST(QueryContextGrant, ChildCancelRefundsTheParent) {
  std::atomic<bool> cancel{true};
  QueryContext parent;
  parent.with_op_budget(1'000'000);
  QueryContext child;
  child.with_parent(&parent).with_cancel_flag(&cancel).with_check_interval(64);
  // The first grant fills the check interval, reads the flag and is refused.
  EXPECT_EQ(child.grant(4, 1000), 0u);
  EXPECT_EQ(child.stop_reason(), ResultStatus::kCancelled);
  EXPECT_EQ(child.spent(), 0u);
  EXPECT_EQ(parent.spent(), 0u);
  EXPECT_FALSE(parent.stopped());
}

TEST(QueryContextGrant, PacedGrantsAreCappedAtOneInterval) {
  std::atomic<bool> cancel{false};
  QueryContext ctx;
  ctx.with_cancel_flag(&cancel).with_check_interval(100);
  EXPECT_EQ(ctx.grant(7, 1000), 14u);  // 98 units: floor(100 / 7) pixels
  EXPECT_EQ(ctx.grant(4, 1000), 25u);
  EXPECT_FALSE(ctx.stopped());
  // A pixel larger than the interval still gets through, one at a time.
  EXPECT_EQ(ctx.grant(300, 5), 1u);
  EXPECT_EQ(ctx.spent(), 98u + 100u + 300u);
}

/// Grants `units`-sized pixels in large requests until refused; returns the
/// units granted.
std::uint64_t drain(QueryContext& ctx, std::uint64_t units) {
  std::uint64_t total = 0;
  while (const std::uint64_t g = ctx.grant(units, 1'000'000)) total += g * units;
  return total;
}

TEST(QueryContextGrant, CancelSeenWithinOneCheckInterval) {
  for (const std::uint64_t units : {1UL, 3UL, 7UL, 64UL}) {
    std::atomic<bool> cancel{false};
    QueryContext ctx;
    ctx.with_cancel_flag(&cancel).with_check_interval(50);
    for (int i = 0; i < 9; ++i) ASSERT_GT(ctx.grant(units, 3), 0u);
    cancel.store(true);
    const std::uint64_t after = drain(ctx, units);
    EXPECT_LT(after, 50u) << "units " << units;
    EXPECT_EQ(ctx.stop_reason(), ResultStatus::kCancelled);
  }
}

TEST(QueryContextGrant, DeadlineSeenWithinOneCheckInterval) {
  for (const std::uint64_t units : {1UL, 4UL, 9UL, 200UL}) {
    QueryContext ctx;
    ctx.with_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1))
        .with_check_interval(128);
    const std::uint64_t granted = drain(ctx, units);
    EXPECT_LT(granted, 128u) << "units " << units;
    EXPECT_EQ(ctx.spent(), granted);
    EXPECT_EQ(ctx.stop_reason(), ResultStatus::kTruncatedDeadline);
  }
}

TEST(QueryContextGrant, ConcurrentGrantsSumExactly) {
  constexpr int kThreads = 8;
  for (const std::uint64_t units : {1UL, 3UL, 4UL}) {
    for (const std::uint64_t budget : {0UL, 1UL, 1000UL, 10007UL, 1'000'000UL}) {
      QueryContext ctx;
      ctx.with_op_budget(budget);
      constexpr std::uint64_t kRequests = 400;
      std::atomic<std::uint64_t> granted{0};
      std::atomic<std::uint64_t> requested{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          std::uint64_t mine = 0;
          std::uint64_t asked = 0;
          for (std::uint64_t i = 0; i < kRequests; ++i) {
            const std::uint64_t pixels = 1 + (i * 7 + static_cast<std::uint64_t>(t)) % 13;
            asked += pixels;
            mine += ctx.grant(units, pixels);
          }
          granted.fetch_add(mine);
          requested.fetch_add(asked);
        });
      }
      for (auto& th : threads) th.join();
      const std::uint64_t expect = std::min(requested.load(), budget / units);
      EXPECT_EQ(granted.load(), expect) << "units " << units << " budget " << budget;
      EXPECT_EQ(ctx.spent(), expect * units);
      EXPECT_LE(ctx.spent(), budget);
      EXPECT_EQ(ctx.stopped(), requested.load() > budget / units);
    }
  }
}

TEST(QueryContextGrant, ConcurrentChildrenKeepTheChainExact) {
  constexpr int kThreads = 8;
  QueryContext parent;
  parent.with_op_budget(5000);
  std::vector<std::unique_ptr<QueryContext>> children;
  for (int t = 0; t < kThreads; ++t) {
    children.push_back(std::make_unique<QueryContext>());
    children.back()->with_parent(&parent).with_op_budget(200 + 150 * static_cast<std::uint64_t>(t));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (children[t]->grant(3, 1 + static_cast<std::uint64_t>(t)) > 0) {
      }
    });
  }
  for (auto& th : threads) th.join();
  std::uint64_t sum = 0;
  for (const auto& child : children) {
    EXPECT_LE(child->spent(), child->budget());
    EXPECT_EQ(child->spent() % 3, 0u);
    sum += child->spent();
  }
  EXPECT_EQ(parent.spent(), sum);
  EXPECT_LE(parent.spent(), parent.budget());
}

// -------------------------------------------------------- trip-point sweep

struct Fixture {
  Scene scene;
  std::vector<Grid> grids;
  std::vector<const Grid*> bands;
  LinearRasterModel model;
  std::unique_ptr<TiledArchive> archive;

  Fixture()
      : scene(generate_scene([] {
          SceneConfig cfg;
          cfg.width = 88;  // not a multiple of the tile: ragged edge tiles
          cfg.height = 72;
          cfg.seed = 21;
          return cfg;
        }())),
        model(hps_risk_model()) {
    grids = {scene.band("b4"), scene.band("b5"), scene.band("b7"), scene.dem};
    // A few poisoned samples exercise the bad-point tally.
    grids[1].cell(5, 3) = std::numeric_limits<double>::quiet_NaN();
    grids[2].cell(70, 40) = std::numeric_limits<double>::infinity();
    for (const Grid& g : grids) bands.push_back(&g);
    archive = std::make_unique<TiledArchive>(bands, 16);
  }

  [[nodiscard]] std::uint64_t units() const { return model.ops_per_evaluation(); }
};

/// What a per-pixel charging loop produces: the answer, the work it paid
/// for, the meter and the tally.
struct Reference {
  TopK<RasterHit> top;
  CostMeter meter;
  exec::ScanTally tally;
  std::uint64_t spent = 0;
  bool stopped = false;

  explicit Reference(std::size_t k) : top(k) {}

  /// One pixel under a per-pixel budget check; false once it cannot pay.
  bool pixel(const Fixture& f, std::uint64_t budget, std::size_t x, std::size_t y) {
    const std::uint64_t u = f.units();
    if (stopped || budget - spent < u) {
      stopped = true;
      return false;
    }
    spent += u;
    ++tally.pixels;
    std::vector<double> values;
    for (const Grid* band : f.bands) values.push_back(band->cell(x, y));
    meter.add_points(values.size());
    meter.add_bytes(values.size() * sizeof(double));
    meter.add_ops(u);
    const double score = f.model.evaluate(values);
    if (std::isfinite(score)) {
      top.offer_ranked(score, exec::pixel_rank(*f.archive, x, y), RasterHit{x, y, score});
    } else {
      ++tally.bad_points;
    }
    return true;
  }

  bool rect(const Fixture& f, std::uint64_t budget, std::size_t x0, std::size_t x1,
            std::size_t y0, std::size_t y1) {
    for (std::size_t y = y0; y < y1; ++y) {
      for (std::size_t x = x0; x < x1; ++x) {
        if (!pixel(f, budget, x, y)) return false;
      }
    }
    return true;
  }
};

void expect_same_hits(const std::vector<RasterHit>& got, const std::vector<RasterHit>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].x, want[i].x) << where << " rank " << i;
    EXPECT_EQ(got[i].y, want[i].y) << where << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << where << " rank " << i;
  }
}

void expect_same_meter(const CostMeter& got, const CostMeter& want, const std::string& where) {
  EXPECT_EQ(got.points(), want.points()) << where;
  EXPECT_EQ(got.ops(), want.ops()) << where;
  EXPECT_EQ(got.bytes(), want.bytes()) << where;
  EXPECT_EQ(got.pruned(), want.pruned()) << where;
}

/// Budgets from 0 to past a full scan: every budget near the start and the
/// end, a ragged stride in between (not a multiple of the pixel cost).
std::vector<std::uint64_t> sweep_budgets(std::uint64_t full, std::uint64_t units,
                                         std::uint64_t stride) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t b = 0; b <= 3 * units; ++b) out.push_back(b);
  for (std::uint64_t b = 3 * units + 1; b < full; b += stride) out.push_back(b);
  for (std::uint64_t b = full - 2 * units; b <= full + 2 * units; ++b) out.push_back(b);
  return out;
}

constexpr std::size_t kK = 12;

TEST(GrantTripPoints, SerialFullScanMatchesPerPixelReference) {
  const Fixture f;
  const TiledArchive& archive = *f.archive;
  const std::uint64_t full = archive.width() * archive.height() * f.units();
  for (const std::uint64_t budget : sweep_budgets(full, f.units(), 97)) {
    const std::string where = "budget " + std::to_string(budget);
    Reference ref(kK);
    ref.rect(f, budget, 0, archive.width(), 0, archive.height());
    const std::vector<RasterHit> want = exec::finalize(ref.top);

    QueryContext ctx;
    ctx.with_op_budget(budget);
    CostMeter meter;
    const RasterTopK got = full_scan_top_k(archive, f.model, kK, ctx, meter);
    expect_same_hits(got.hits, want, where);
    EXPECT_EQ(ctx.spent(), ref.spent) << where;
    expect_same_meter(meter, ref.meter, where);
    EXPECT_EQ(got.bad_points, ref.tally.bad_points) << where;
    EXPECT_EQ(ctx.stopped(), ref.stopped) << where;
    EXPECT_EQ(got.status, ref.stopped ? ResultStatus::kTruncatedBudget : ResultStatus::kDegraded)
        << where;

    // The kernel itself: same tally, pixel for pixel.
    QueryContext kctx;
    kctx.with_op_budget(budget);
    CostMeter kmeter;
    exec::ScanTally tally;
    TopK<RasterHit> top(kK);
    std::vector<double> scratch(archive.band_count());
    exec::scan_rect_full(archive, f.model, 0, archive.width(), 0, archive.height(), top, scratch,
                         kctx, kmeter, tally);
    EXPECT_EQ(tally.pixels, ref.tally.pixels) << where;
    EXPECT_EQ(tally.bad_points, ref.tally.bad_points) << where;
    EXPECT_EQ(kctx.spent(), ref.spent) << where;
    expect_same_hits(exec::finalize(top), want, where);
  }
}

TEST(GrantTripPoints, TileKernelMatchesPerPixelReference) {
  // Tile by tile in index order, one shared budget: grants stop mid-tile at
  // the same pixel as the reference, and later tiles get nothing.
  const Fixture f;
  const TiledArchive& archive = *f.archive;
  const std::uint64_t full = archive.width() * archive.height() * f.units();
  for (const std::uint64_t budget : sweep_budgets(full, f.units(), 89)) {
    const std::string where = "budget " + std::to_string(budget);
    Reference ref(kK);
    QueryContext ctx;
    ctx.with_op_budget(budget);
    CostMeter meter;
    exec::ScanTally tally;
    TopK<RasterHit> top(kK);
    std::vector<double> scratch(archive.band_count());
    for (const TileSummary& tile : archive.tiles()) {
      ref.rect(f, budget, tile.x0, tile.x0 + tile.width, tile.y0, tile.y0 + tile.height);
      exec::scan_rect_full(archive, f.model, tile.x0, tile.x0 + tile.width, tile.y0,
                           tile.y0 + tile.height, top, scratch, ctx, meter, tally);
    }
    EXPECT_EQ(tally.pixels, ref.tally.pixels) << where;
    EXPECT_EQ(tally.bad_points, ref.tally.bad_points) << where;
    EXPECT_EQ(ctx.spent(), ref.spent) << where;
    expect_same_meter(meter, ref.meter, where);
    expect_same_hits(exec::finalize(top), exec::finalize(ref.top), where);
  }
}

TEST(GrantTripPoints, SerialTileScreenedMatchesPerPixelReference) {
  const Fixture f;
  const TiledArchive& archive = *f.archive;
  const auto tiles = archive.tiles();
  CostMeter scratch_meter;
  const exec::TileBounds tb = exec::compute_tile_bounds(archive, f.model, scratch_meter);
  const std::uint64_t metadata = tiles.size() * f.units();
  const std::uint64_t full = metadata + archive.width() * archive.height() * f.units();
  for (const std::uint64_t budget : sweep_budgets(full, f.units(), 61)) {
    const std::string where = "budget " + std::to_string(budget);
    // Reference: the executor's metadata pass and best-bound-first loop with
    // a per-pixel budget check inside each tile.
    Reference ref(kK);
    ref.meter.add_ops(metadata);  // bounds are computed before the charge
    ResultStatus want_status = ResultStatus::kDegraded;
    double want_missed = exec::kNegInf;
    if (metadata > budget) {
      want_status = ResultStatus::kTruncatedBudget;
      want_missed = exec::archive_score_bound(archive, f.model);
    } else {
      ref.spent = metadata;
      for (std::size_t pos = 0; pos < tb.order.size(); ++pos) {
        const std::size_t t = tb.order[pos];
        const TileSummary& tile = tiles[t];
        const exec::TilePrune verdict =
            exec::screen_tile(ref.top, tb.bounds[t].hi, exec::tile_min_rank(archive, tile));
        if (verdict == exec::TilePrune::kPruneRest) {
          ref.meter.add_pruned(tb.order.size() - pos);
          break;
        }
        if (verdict == exec::TilePrune::kPruneOne) {
          ref.meter.add_pruned();
          continue;
        }
        if (!ref.rect(f, budget, tile.x0, tile.x0 + tile.width, tile.y0,
                      tile.y0 + tile.height)) {
          want_status = ResultStatus::kTruncatedBudget;
          want_missed = tb.bounds[t].hi;
          break;
        }
      }
    }

    QueryContext ctx;
    ctx.with_op_budget(budget);
    CostMeter meter;
    const RasterTopK got = tile_screened_top_k(archive, f.model, kK, ctx, meter);
    expect_same_hits(got.hits, exec::finalize(ref.top), where);
    EXPECT_EQ(ctx.spent(), ref.spent) << where;
    expect_same_meter(meter, ref.meter, where);
    EXPECT_EQ(got.bad_points, ref.tally.bad_points) << where;
    EXPECT_EQ(got.status, want_status) << where;
    EXPECT_EQ(got.missed_bound, want_missed) << where;
  }
}

/// Sound truncation: every certified hit matches the exact answer rank for
/// rank; a complete answer matches it exactly.
void expect_sound(const RasterTopK& got, const std::vector<RasterHit>& exact,
                  const std::string& where) {
  if (!is_truncated(got.status)) {
    expect_same_hits(got.hits, exact, where);
    return;
  }
  const std::size_t certified = got.certified_prefix();
  ASSERT_LE(certified, exact.size()) << where;
  for (std::size_t i = 0; i < certified; ++i) {
    EXPECT_EQ(got.hits[i].score, exact[i].score) << where << " certified rank " << i;
  }
}

TEST(GrantTripPoints, ParallelAndShardedCertifySoundPrefixes) {
  const Fixture f;
  const TiledArchive& archive = *f.archive;
  const ShardedArchive sharded(archive, 3, ShardPolicy::kRowBands);
  CostMeter exact_meter;
  const std::vector<RasterHit> exact = full_scan_top_k(archive, f.model, kK, exact_meter);
  const std::uint64_t full =
      (archive.tiles().size() + archive.width() * archive.height()) * f.units();
  const std::vector<std::uint64_t> budgets = sweep_budgets(full, f.units(), 1013);
  for (const std::size_t workers : {0UL, 1UL, 3UL, 7UL}) {  // 1 / 2 / 4 / 8 threads
    ThreadPool pool(workers);
    for (const std::uint64_t budget : budgets) {
      for (int variant = 0; variant < 4; ++variant) {
        const std::string where = "workers " + std::to_string(workers) + " budget " +
                                  std::to_string(budget) + " variant " + std::to_string(variant);
        QueryContext ctx;
        ctx.with_op_budget(budget);
        CostMeter meter;
        RasterTopK got;
        switch (variant) {
          case 0: got = parallel_full_scan_top_k(archive, f.model, kK, ctx, meter, pool); break;
          case 1:
            got = parallel_tile_screened_top_k(archive, f.model, kK, ctx, meter, pool);
            break;
          case 2:
            got = sharded_full_scan_top_k(sharded, f.model, kK, ctx, meter, pool).merged;
            break;
          default:
            got = sharded_tile_screened_top_k(sharded, f.model, kK, ctx, meter, pool).merged;
            break;
        }
        expect_sound(got, exact, where);
        // Every granted unit was scanned (or spent on tile bounds), and the
        // meter counts both: spent() is the work actually done.
        EXPECT_EQ(ctx.spent(), meter.ops()) << where;
        EXPECT_LE(ctx.spent(), budget) << where;
        EXPECT_EQ(is_truncated(got.status), ctx.stopped()) << where;
      }
    }
  }
}

}  // namespace
}  // namespace mmir
