// Oracle self-test: the independent oracle agrees with the engine's serial
// executors on small testing/scenario_gen.hpp archives (including tie storms
// and constant tiles) and on Onion and composite queries, and it rejects
// perturbed answers.

#include <cstdio>

#include "bench.hpp"
#include "core/progressive_exec.hpp"
#include "index/onion.hpp"
#include "sproc/brute.hpp"
#include "sproc/fast_sproc.hpp"
#include "testing/scenario_gen.hpp"

namespace pb {

namespace {

struct Counter {
  int passed = 0;
  int failed = 0;
  void expect(bool ok, const std::string& what) {
    if (ok) {
      ++passed;
    } else {
      ++failed;
      std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
    }
  }
};

Planes planes_of(const mmir::GeneratedArchive& g) {
  Planes p;
  p.width = g.config.width;
  p.height = g.config.height;
  for (const mmir::Grid& grid : g.grids) {
    p.band.emplace_back(grid.flat().begin(), grid.flat().end());
  }
  return p;
}

void raster_agreement(Counter& c, mmir::RasterTopK& sample, Planes& sample_planes,
                      ModelSpec& sample_model, std::vector<RefEntry>& sample_ref) {
  const mmir::ScenarioKind kinds[] = {mmir::ScenarioKind::kDense, mmir::ScenarioKind::kSparse,
                                      mmir::ScenarioKind::kConstantTile,
                                      mmir::ScenarioKind::kTieStorm};
  std::vector<std::string> names;
  for (std::size_t b = 0; b < kBands; ++b) names.push_back("b" + std::to_string(b));
  for (const mmir::ScenarioKind kind : kinds) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      mmir::ScenarioConfig cfg;
      cfg.kind = kind;
      cfg.width = 64;
      cfg.height = 48;
      cfg.bands = kBands;
      cfg.tile_size = kTile;
      cfg.seed = seed;
      const mmir::GeneratedArchive g = mmir::generate_scenario(cfg);
      const Planes p = planes_of(g);
      std::vector<mmir::Interval> ranges(g.tiled().band_ranges().begin(),
                                         g.tiled().band_ranges().end());
      SplitMix64 rng = stream(seed, 50 + static_cast<std::uint64_t>(kind));
      for (int trial = 0; trial < 4; ++trial) {
        ModelSpec m;
        const bool integral = kind == mmir::ScenarioKind::kTieStorm ||
                              kind == mmir::ScenarioKind::kConstantTile;
        for (std::size_t b = 0; b < kBands; ++b) {
          m.w.push_back(integral ? static_cast<double>(rng.below(5)) - 2.0
                                 : rng.uniform(-1.0, 1.0));
        }
        m.bias = integral ? 0.0 : rng.uniform(-0.5, 0.5);
        const std::vector<RefEntry> ref = raster_reference(p, m, kTopK);
        const mmir::LinearModel linear(m.w, m.bias, names);
        const mmir::LinearRasterModel raster(linear);
        const mmir::ProgressiveLinearModel prog(linear, ranges);
        const std::string where = std::string(mmir::scenario_name(kind)) + " seed " +
                                  std::to_string(seed) + " trial " + std::to_string(trial);
        const auto verify = [&](const char* exec, const mmir::RasterTopK& r) {
          const std::string reason = check_raster(r, p, m, ref);
          c.expect(reason.empty(), where + " " + exec + ": " + reason);
        };
        {
          mmir::QueryContext ctx;
          mmir::CostMeter meter;
          const mmir::RasterTopK r = mmir::full_scan_top_k(g.tiled(), raster, kTopK, ctx, meter);
          verify("full_scan", r);
          if (kind == mmir::ScenarioKind::kDense && seed == 1 && trial == 0) {
            sample = r;
            sample_planes = p;
            sample_model = m;
            sample_ref = ref;
          }
        }
        {
          mmir::QueryContext ctx;
          mmir::CostMeter meter;
          verify("tile_screened", mmir::tile_screened_top_k(g.tiled(), raster, kTopK, ctx, meter));
        }
        {
          mmir::QueryContext ctx;
          mmir::CostMeter meter;
          verify("progressive_model",
                 mmir::progressive_model_top_k(g.tiled(), prog, kTopK, ctx, meter));
        }
        {
          mmir::QueryContext ctx;
          mmir::CostMeter meter;
          verify("combined", mmir::progressive_combined_top_k(g.tiled(), prog, kTopK, ctx, meter));
        }
      }
    }
  }
}

void raster_rejections(Counter& c, const mmir::RasterTopK& good, const Planes& p,
                       const ModelSpec& m, const std::vector<RefEntry>& ref) {
  c.expect(check_raster(good, p, m, ref).empty(), "sample answer accepted");
  const auto rejects = [&](const char* what, mmir::RasterTopK bad) {
    c.expect(!check_raster(bad, p, m, ref).empty(), std::string("rejects ") + what);
  };
  {
    mmir::RasterTopK bad = good;
    std::swap(bad.hits.front(), bad.hits.back());
    rejects("swapped order", bad);
  }
  {
    mmir::RasterTopK bad = good;
    bad.hits.back().score += 1e-3;
    rejects("perturbed score", bad);
  }
  {
    // A pixel outside the top-K, reported with its true score.
    mmir::RasterTopK bad = good;
    std::size_t rank = 0;
    const auto in_ref = [&](std::size_t r) {
      for (const RefEntry& e : ref) {
        if (e.id == r) return true;
      }
      return false;
    };
    while (in_ref(rank)) ++rank;
    bad.hits.back().x = rank % p.width;
    bad.hits.back().y = rank / p.width;
    bad.hits.back().score = raster_score(p, m, rank);
    std::sort(bad.hits.begin(), bad.hits.end(),
              [](const mmir::RasterHit& a, const mmir::RasterHit& b) { return a.score > b.score; });
    rejects("foreign pixel", bad);
  }
  {
    mmir::RasterTopK bad = good;
    bad.hits.pop_back();
    rejects("missing hit", bad);
  }
  {
    mmir::RasterTopK bad = good;
    bad.hits.back() = bad.hits.front();
    rejects("duplicate pixel", bad);
  }
  for (const mmir::ResultStatus s :
       {mmir::ResultStatus::kDegraded, mmir::ResultStatus::kTruncatedBudget,
        mmir::ResultStatus::kTruncatedDeadline, mmir::ResultStatus::kShed}) {
    mmir::RasterTopK bad = good;
    bad.status = s;
    rejects(mmir::to_string(s), bad);
  }
}

void onion_agreement(Counter& c) {
  const Tuples t = make_tuples(7, 600, 3);
  mmir::TupleSet set(3, t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    set.push_row(std::span<const double>(t.rows.data() + 3 * i, 3));
  }
  const mmir::OnionIndex index(set);
  const auto weights = make_weights(7, 12, 3);
  for (std::size_t q = 0; q < weights.size(); ++q) {
    const std::vector<RefEntry> ref = onion_reference(t, weights[q], kTopK);
    mmir::QueryContext ctx;
    mmir::CostMeter meter;
    const mmir::OnionTopK r = index.top_k(weights[q], kTopK, ctx, meter);
    const std::string reason = check_onion(r, t, weights[q], ref);
    c.expect(reason.empty(), "onion query " + std::to_string(q) + ": " + reason);
    if (q == 0) {
      mmir::OnionTopK bad = r;
      std::swap(bad.hits[0].id, bad.hits[1].id);
      c.expect(!check_onion(bad, t, weights[q], ref).empty(), "rejects swapped onion ids");
    }
  }
}

void composite_agreement(Counter& c) {
  const std::vector<CompositeSpec> specs = make_composites(9, 6, 3, 9);
  for (std::size_t q = 0; q < specs.size(); ++q) {
    const CompositeSpec& spec = specs[q];
    mmir::CartesianQuery query;
    query.components = spec.components;
    query.library_size = spec.library;
    query.unary = [&spec](std::size_t m, std::uint32_t j) { return spec.u(m, j); };
    query.binary = [&spec](std::size_t m, std::uint32_t i, std::uint32_t j) {
      return spec.b(m, i, j);
    };
    const std::vector<RefEntry> ref = composite_reference(spec, kTopK);
    {
      mmir::QueryContext ctx;
      mmir::CostMeter meter;
      const mmir::CompositeTopK r = mmir::fast_sproc_top_k(query, kTopK, ctx, meter);
      const std::string reason = check_composite(r, spec, ref);
      c.expect(reason.empty(), "fast sproc query " + std::to_string(q) + ": " + reason);
      if (q == 0) {
        mmir::CompositeTopK bad = r;
        bad.matches[2].items[1] = (bad.matches[2].items[1] + 1) % spec.library;
        c.expect(!check_composite(bad, spec, ref).empty(), "rejects altered composite");
      }
    }
    {
      mmir::QueryContext ctx;
      mmir::CostMeter meter;
      const mmir::CompositeTopK r = mmir::brute_force_top_k(query, kTopK, ctx, meter);
      const std::string reason = check_composite(r, spec, ref);
      c.expect(reason.empty(), "brute force query " + std::to_string(q) + ": " + reason);
    }
  }
}

}  // namespace

int run_self_test() {
  Counter c;
  mmir::RasterTopK sample;
  Planes sample_planes;
  ModelSpec sample_model;
  std::vector<RefEntry> sample_ref;
  raster_agreement(c, sample, sample_planes, sample_model, sample_ref);
  raster_rejections(c, sample, sample_planes, sample_model, sample_ref);
  onion_agreement(c);
  composite_agreement(c);
  std::printf("self-test: %d checks passed, %d failed\n", c.passed, c.failed);
  return c.failed == 0 ? 0 : 1;
}

}  // namespace pb
