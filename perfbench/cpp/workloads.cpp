// The four workloads.  Each is a closed loop (or a backlog) driven from this
// process with at most four load threads, so qps is the engine's own
// throughput, never an offered rate.
//
//   scan_cold      one caller; per operation one fresh linear model runs as
//                  a tile-parallel RasterJob (engine pool of 3) and then as
//                  a ShardedRasterJob over 4 row-band shards; full scans.
//   batch_backlog  one client submits a backlog of 48 cold full scans at
//                  once to an engine with shared-scan batching (fan-in 8,
//                  2 dispatchers: three waves of two batches), waits for
//                  all, repeats.
//   serve_mix      three callers against one engine (3 dispatchers, result
//                  and tile caches, metrics and tracer on): Zipf-popular
//                  combined queries the result cache holds, cold combined
//                  queries, Onion top-K and fast-SPROC composite queries.
//   router_fanout  one caller sends combined queries with fresh models
//                  through net::Router to 4 in-process ShardServers over
//                  loopback TCP.
//
// BENCHMARK.json lists only scan_cold and batch_backlog: the other two
// follow host CPU steal too closely to gate on (see README.md).

#include <atomic>
#include <exception>
#include <future>
#include <stdexcept>
#include <thread>

#include "archive/sharded.hpp"
#include "bench.hpp"
#include "engine/scheduler.hpp"
#include "engine/shard_exec.hpp"
#include "engine/thread_pool.hpp"
#include "index/onion.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sproc/fast_sproc.hpp"
#include "sproc/query.hpp"

namespace pb {

void RasterInputs::generate(std::uint64_t seed, std::uint64_t purpose, std::size_t side,
                            std::size_t pool) {
  planes = make_planes(seed, side, side, kBands);
  models = make_models(seed, purpose, pool, kBands);
}

void RasterInputs::build(SpanLog* spans) {
  const std::size_t side = planes.width;
  ranges.clear();
  grids.clear();
  grids.reserve(kBands);
  for (std::size_t b = 0; b < kBands; ++b) {
    const std::vector<double>& plane = planes.band[b];
    double lo = plane[0];
    double hi = plane[0];
    for (double v : plane) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    ranges.emplace_back(lo, hi);
    grids.emplace_back(side, side);
    std::copy(plane.begin(), plane.end(), grids.back().flat().begin());
  }
  std::vector<const mmir::Grid*> bands;
  for (const mmir::Grid& g : grids) bands.push_back(&g);
  {
    SpanLog::Scope s(spans, "archive.ingest");
    archive = std::make_unique<mmir::TiledArchive>(bands, kTile);
  }
  std::vector<std::string> names;
  for (std::size_t b = 0; b < kBands; ++b) names.push_back("b" + std::to_string(b));
  raster.clear();
  progressive.clear();
  for (const ModelSpec& m : models) {
    mmir::LinearModel linear(m.w, m.bias, names);
    progressive.push_back(std::make_unique<mmir::ProgressiveLinearModel>(linear, ranges));
    raster.push_back(std::make_unique<mmir::LinearRasterModel>(std::move(linear)));
  }
}

void RasterInputs::compute_refs() {
  refs.clear();
  for (const ModelSpec& m : models) refs.push_back(raster_reference(planes, m, kTopK));
}

namespace {

double ms_between(std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a) / 1e6; }
double ms_of(std::chrono::nanoseconds d) { return static_cast<double>(d.count()) / 1e6; }

void record_outcome(Tally& t, const mmir::OutcomeInfo& o) {
  std::lock_guard<std::mutex> lock(t.mutex);
  t.queue_wait_ms.push_back(ms_of(o.queue_wait));
  t.exec_ms.push_back(ms_of(o.exec_time));
}

void record_answer(Tally& t, const std::string& reason) { t.answer(reason, status_failure(reason)); }

std::uint64_t counter(const mmir::obs::MetricsRegistry& reg, const char* name) {
  return reg.snapshot().counter(name);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------

class ScanCold final : public Workload {
 public:
  void generate(std::uint64_t seed) override { in_.generate(seed, 1, kSide, kPool); }
  void setup(SpanLog* spans) override {
    in_.build(spans);
    sharded_ = std::make_unique<mmir::ShardedArchive>(*in_.archive, kShards,
                                                      mmir::ShardPolicy::kRowBands);
    mmir::EngineConfig cfg;
    cfg.dispatchers = 1;
    cfg.intra_query_threads = 3;
    cfg.queue_capacity = 8;
    cfg.result_cache_entries = 0;
    cfg.tile_cache_entries = 0;
    cfg.metrics = &registry_;
    engine_ = std::make_unique<mmir::QueryEngine>(cfg);
  }
  void prepare_oracle() override { in_.compute_refs(); }
  void warm_up() override {
    Tally scratch;
    for (int i = 0; i < 4; ++i) op(scratch, nullptr);
  }
  void run(std::uint64_t stop_ns, Tally& tally, SpanLog* spans) override {
    while (now_ns() < stop_ns) op(tally, spans);
  }
  [[nodiscard]] const RasterInputs& raster_inputs() const override { return in_; }
  [[nodiscard]] bool combined_mode() const override { return false; }
  void layers(Layers&, const Tally&, SpanLog&) override {}

 private:
  static constexpr std::size_t kSide = 512;
  static constexpr std::size_t kPool = 48;
  static constexpr std::size_t kShards = 4;

  void op(Tally& tally, SpanLog* spans) {
    const std::size_t m = next_++ % kPool;
    const std::uint64_t trace = spans != nullptr ? spans->new_trace() : 0;
    SpanLog::Scope span(spans, "op.scan_pair", trace);
    const std::uint64_t t0 = now_ns();

    mmir::RasterJob job;
    job.mode = mmir::RasterJob::Mode::kFullScan;
    job.archive = in_.archive.get();
    job.model = in_.raster[m].get();
    job.k = kTopK;
    mmir::RasterOutcome a;
    {
      SpanLog::Scope s(spans, "engine.raster_job", trace, span.id());
      a = engine_->submit(job).get();
    }
    record_answer(tally, in_.check(a.result, m));

    mmir::ShardedRasterJob sjob;
    sjob.mode = mmir::RasterJob::Mode::kFullScan;
    sjob.sharded = sharded_.get();
    sjob.model = in_.raster[m].get();
    sjob.k = kTopK;
    mmir::ShardedRasterOutcome b;
    {
      SpanLog::Scope s(spans, "engine.sharded_job", trace, span.id());
      b = engine_->submit(sjob).get();
    }
    record_answer(tally, in_.check(b.result.merged, m));

    tally.op(ms_between(t0, now_ns()), 2);
    record_outcome(tally, a);
    record_outcome(tally, b);
    tally.boundary();
  }

  RasterInputs in_;
  std::unique_ptr<mmir::ShardedArchive> sharded_;
  mmir::obs::MetricsRegistry registry_;
  std::unique_ptr<mmir::QueryEngine> engine_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------------

class BatchBacklog final : public Workload {
 public:
  void generate(std::uint64_t seed) override { in_.generate(seed, 2, kSide, kPool); }
  void setup(SpanLog* spans) override {
    in_.build(spans);
    mmir::EngineConfig cfg;
    cfg.dispatchers = 2;
    cfg.intra_query_threads = 0;
    cfg.queue_capacity = 2 * kBacklog;
    cfg.result_cache_entries = 0;
    cfg.tile_cache_entries = 0;
    cfg.batch_max_fanin = kFanIn;
    cfg.batch_window = std::chrono::milliseconds(5);
    cfg.metrics = &registry_;
    engine_ = std::make_unique<mmir::QueryEngine>(cfg);
  }
  void prepare_oracle() override { in_.compute_refs(); }
  void warm_up() override {
    Tally scratch;
    backlog(scratch, nullptr);
  }
  void run(std::uint64_t stop_ns, Tally& tally, SpanLog* spans) override {
    while (now_ns() < stop_ns) backlog(tally, spans);
  }
  void mark() override {
    batches0_ = counter(registry_, "engine_batch_batches_total");
    members0_ = counter(registry_, "engine_batch_members_total");
  }
  [[nodiscard]] const RasterInputs& raster_inputs() const override { return in_; }
  [[nodiscard]] bool combined_mode() const override { return false; }
  void layers(Layers& out, const Tally&, SpanLog&) override {
    const double batches =
        static_cast<double>(counter(registry_, "engine_batch_batches_total") - batches0_);
    const double members =
        static_cast<double>(counter(registry_, "engine_batch_members_total") - members0_);
    out["scheduler.batch_fanin_mean"] = ratio(members, batches);
  }

 private:
  static constexpr std::size_t kSide = 512;
  static constexpr std::size_t kBacklog = 48;
  static constexpr std::size_t kFanIn = 8;
  static constexpr std::size_t kPool = 2 * kBacklog;

  void backlog(Tally& tally, SpanLog* spans) {
    const std::uint64_t trace = spans != nullptr ? spans->new_trace() : 0;
    SpanLog::Scope span(spans, "op.backlog", trace);
    const std::uint64_t t0 = now_ns();
    std::vector<std::pair<std::size_t, std::future<mmir::RasterOutcome>>> pending;
    pending.reserve(kBacklog);
    {
      SpanLog::Scope s(spans, "engine.submit_backlog", trace, span.id());
      for (std::size_t j = 0; j < kBacklog; ++j) {
        const std::size_t m = next_++ % kPool;
        mmir::RasterJob job;
        job.mode = mmir::RasterJob::Mode::kFullScan;
        job.archive = in_.archive.get();
        job.model = in_.raster[m].get();
        job.k = kTopK;
        pending.emplace_back(m, engine_->submit(job));
      }
    }
    SpanLog::Scope wait(spans, "engine.await_backlog", trace, span.id());
    for (auto& [m, future] : pending) {
      const mmir::RasterOutcome out = future.get();
      record_answer(tally, in_.check(out.result, m));
      tally.op(ms_between(t0, now_ns()), 1);
      record_outcome(tally, out);
    }
    tally.boundary();
  }

  RasterInputs in_;
  mmir::obs::MetricsRegistry registry_;
  std::unique_ptr<mmir::QueryEngine> engine_;
  std::size_t next_ = 0;
  std::uint64_t batches0_ = 0;
  std::uint64_t members0_ = 0;
};

// ---------------------------------------------------------------------------

class ServeMix final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    in_.generate(seed, 3, kSide, kPopular + kCold);
    tuples_ = make_tuples(seed, kTuples, 3);
    weights_ = make_weights(seed, kOnionPool, 3);
    composites_ = make_composites(seed, kSprocPool, 3, kLibrary);
    make_schedules(seed);
  }

  void setup(SpanLog* spans) override {
    in_.build(spans);
    tupleset_ = std::make_unique<mmir::TupleSet>(3, kTuples);
    for (std::size_t i = 0; i < kTuples; ++i) {
      tupleset_->push_row(std::span<const double>(tuples_.rows.data() + 3 * i, 3));
    }
    {
      SpanLog::Scope s(spans, "index.onion_build");
      onion_ = std::make_unique<mmir::OnionIndex>(*tupleset_);
    }
    queries_.clear();
    for (const CompositeSpec& c : composites_) {
      mmir::CartesianQuery q;
      q.components = c.components;
      q.library_size = c.library;
      q.tnorm = mmir::TNorm::kProduct;
      const CompositeSpec* spec = &c;
      q.unary = [spec](std::size_t m, std::uint32_t j) { return spec->u(m, j); };
      q.binary = [spec](std::size_t m, std::uint32_t i, std::uint32_t j) {
        return spec->b(m, i, j);
      };
      queries_.push_back(std::move(q));
    }
    engine_ = make_engine(true);
  }

  void prepare_oracle() override {
    in_.compute_refs();
    onion_refs_.clear();
    for (const auto& w : weights_) onion_refs_.push_back(onion_reference(tuples_, w, kTopK));
    sproc_refs_.clear();
    for (const CompositeSpec& c : composites_) sproc_refs_.push_back(composite_reference(c, kTopK));
  }

  void warm_up() override { warm(*engine_); }

  void run(std::uint64_t stop_ns, Tally& tally, SpanLog* spans) override {
    run_on(*engine_, stop_ns, tally, spans);
  }

  void mark() override {
    result0_ = engine_->result_cache_stats();
    tile0_ = engine_->tile_cache_stats();
  }

  [[nodiscard]] const RasterInputs& raster_inputs() const override { return in_; }
  [[nodiscard]] bool combined_mode() const override { return true; }

  [[nodiscard]] bool covers_service_layers() const override { return true; }

  void layers(Layers& out, const Tally&, SpanLog& spans) override {
    const mmir::CacheStats r = engine_->result_cache_stats();
    const mmir::CacheStats t = engine_->tile_cache_stats();
    out["scheduler.result_cache_hit_ratio"] =
        ratio(static_cast<double>(r.hits - result0_.hits),
              static_cast<double>(r.hits - result0_.hits + r.misses - result0_.misses));
    out["scheduler.tile_cache_hit_ratio"] =
        ratio(static_cast<double>(t.hits - tile0_.hits),
              static_cast<double>(t.hits - tile0_.hits + t.misses - tile0_.misses));

    // Index layers on their own, on the workload's tuples and queries.
    for (int rep = 0; rep < 4; ++rep) {
      for (const auto& w : weights_) {
        mmir::QueryContext ctx;
        mmir::CostMeter meter;
        SpanLog::Scope s(&spans, "index.onion_top_k");
        (void)onion_->top_k(w, kTopK, ctx, meter);
      }
      for (const auto& q : queries_) {
        mmir::QueryContext ctx;
        mmir::CostMeter meter;
        SpanLog::Scope s(&spans, "sproc.fast_top_k");
        (void)mmir::fast_sproc_top_k(q, kTopK, ctx, meter);
      }
    }
    out["onion.query_us"] = 1e3 * median(spans.durations_ms("index.onion_top_k"));
    out["sproc.query_us"] = 1e3 * median(spans.durations_ms("sproc.fast_top_k"));

    // Tracer cost: the same mix on fresh engines with the tracer off and on,
    // alternating, each side's median qps.
    std::vector<double> off;
    std::vector<double> on;
    for (int rep = 0; rep < 3; ++rep) {
      for (const bool traced : {false, true}) {
        auto engine = make_engine(traced);
        warm(*engine);
        Tally t;
        const std::uint64_t t0 = now_ns();
        run_on(*engine, t0 + 400'000'000ULL, t, nullptr);
        const double qps = static_cast<double>(t.queries) / (ms_between(t0, now_ns()) / 1e3);
        (traced ? on : off).push_back(qps);
      }
    }
    out["obs.tracer_overhead_pct"] = 100.0 * (median(off) - median(on)) / median(off);

    // The net layer, over this workload's archive and models.
    probe_fleet(in_, out, spans);
  }

 private:
  static constexpr std::size_t kSide = 512;
  static constexpr std::size_t kPopular = 32;
  static constexpr std::size_t kResultCacheEntries = 256;
  static constexpr std::size_t kCold = 2 * kResultCacheEntries;
  static constexpr std::size_t kTuples = 20000;
  static constexpr std::size_t kOnionPool = 64;
  static constexpr std::size_t kSprocPool = 16;
  static constexpr std::size_t kLibrary = 40;
  static constexpr std::size_t kCallers = 3;
  // As many dispatchers as callers: with fewer, a popular query queues
  // behind cold scans about half the time, which put p50 on the knee
  // between queued and unqueued queries and moved it 20% between runs.
  static constexpr std::size_t kDispatchers = 3;
  static constexpr std::size_t kSchedule = 4096;
  static constexpr std::size_t kRound = 8;
  // Query-class shares; the rest are popular (cached) combined queries.
  static constexpr double kColdShare = 0.20;
  static constexpr double kOnionShare = 0.05;
  static constexpr double kSprocShare = 0.05;
  static constexpr std::uint64_t kArchiveId = 1;

  enum class Kind : std::uint8_t { kHot, kCold, kOnion, kSproc };
  struct Step {
    Kind kind = Kind::kHot;
    std::size_t index = 0;
  };

  void make_schedules(std::uint64_t seed) {
    // Zipf(1) over the popular set.
    std::vector<double> cdf(kPopular);
    double total = 0.0;
    for (std::size_t i = 0; i < kPopular; ++i) total += 1.0 / static_cast<double>(i + 1);
    double acc = 0.0;
    for (std::size_t i = 0; i < kPopular; ++i) {
      acc += 1.0 / static_cast<double>(i + 1) / total;
      cdf[i] = acc;
    }
    schedules_.assign(kCallers, {});
    for (std::size_t c = 0; c < kCallers; ++c) {
      SplitMix64 rng = stream(seed, 20 + c);
      for (std::size_t i = 0; i < kSchedule; ++i) {
        const double u = rng.uniform();
        Step step;
        if (u < kColdShare) {
          step = {Kind::kCold, 0};
        } else if (u < kColdShare + kOnionShare) {
          step = {Kind::kOnion, rng.below(kOnionPool)};
        } else if (u < kColdShare + kOnionShare + kSprocShare) {
          step = {Kind::kSproc, rng.below(kSprocPool)};
        } else {
          const double z = rng.uniform();
          const std::size_t idx = static_cast<std::size_t>(
              std::lower_bound(cdf.begin(), cdf.end(), z) - cdf.begin());
          step = {Kind::kHot, std::min(idx, kPopular - 1)};
        }
        schedules_[c].push_back(step);
      }
    }
  }

  std::unique_ptr<mmir::QueryEngine> make_engine(bool traced) {
    mmir::EngineConfig cfg;
    cfg.dispatchers = kDispatchers;
    cfg.intra_query_threads = 0;
    cfg.queue_capacity = 64;
    cfg.result_cache_entries = kResultCacheEntries;
    cfg.tile_cache_entries = 4096;
    cfg.metrics = &registry_;
    cfg.tracer = traced ? &tracer_ : nullptr;
    return std::make_unique<mmir::QueryEngine>(cfg);
  }

  /// Fills the result cache with the popular set, then runs the mix briefly.
  void warm(mmir::QueryEngine& engine) {
    Tally scratch;
    for (std::size_t m = 0; m < kPopular; ++m) step(engine, {Kind::kHot, m}, scratch, nullptr);
    run_on(engine, now_ns() + 300'000'000ULL, scratch, nullptr);
  }

  /// Runs the callers to `stop_ns`; an exception in a caller is rethrown
  /// here once every caller has been joined.
  void run_on(mmir::QueryEngine& engine, std::uint64_t stop_ns, Tally& tally, SpanLog* spans) {
    std::exception_ptr errors[kCallers];
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([this, &engine, stop_ns, &tally, spans, c, &errors] {
        try {
          std::size_t pos = cursor_[c];
          while (now_ns() < stop_ns) {
            for (std::size_t r = 0; r < kRound; ++r) {
              step(engine, schedules_[c][pos++ % kSchedule], tally, spans);
            }
          }
          cursor_[c] = pos;
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    for (std::thread& t : callers) t.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  void step(mmir::QueryEngine& engine, Step s, Tally& tally, SpanLog* spans) {
    const std::uint64_t trace = spans != nullptr ? spans->new_trace() : 0;
    const char* name = s.kind == Kind::kHot    ? "op.hot_combined"
                       : s.kind == Kind::kCold ? "op.cold_combined"
                       : s.kind == Kind::kOnion ? "op.onion"
                                                : "op.sproc";
    SpanLog::Scope span(spans, name, trace);
    const std::uint64_t t0 = now_ns();
    std::string reason;
    switch (s.kind) {
      case Kind::kHot:
      case Kind::kCold: {
        // Cold models come round-robin from a pool twice the result
        // cache's size, so each has been evicted before it recurs.
        const std::size_t m =
            s.kind == Kind::kHot
                ? s.index
                : kPopular + next_cold_.fetch_add(1, std::memory_order_relaxed) % kCold;
        mmir::RasterJob job;
        job.mode = mmir::RasterJob::Mode::kCombined;
        job.archive = in_.archive.get();
        job.progressive = in_.progressive[m].get();
        job.k = kTopK;
        job.archive_id = kArchiveId;
        const mmir::RasterOutcome out = engine.submit(job).get();
        reason = in_.check(out.result, m);
        record_outcome(tally, out);
        break;
      }
      case Kind::kOnion: {
        mmir::OnionJob job;
        job.index = onion_.get();
        job.weights = weights_[s.index];
        job.k = kTopK;
        const mmir::OnionOutcome out = engine.submit(std::move(job)).get();
        reason = check_onion(out.result, tuples_, weights_[s.index], onion_refs_[s.index]);
        record_outcome(tally, out);
        break;
      }
      case Kind::kSproc: {
        mmir::CompositeJob job;
        job.query = &queries_[s.index];
        job.processor = mmir::CompositeJob::Processor::kFastSproc;
        job.k = kTopK;
        const mmir::CompositeOutcome out = engine.submit(job).get();
        reason = check_composite(out.result, composites_[s.index], sproc_refs_[s.index]);
        record_outcome(tally, out);
        break;
      }
    }
    record_answer(tally, reason);
    tally.op(ms_between(t0, now_ns()), 1);
    tally.boundary();
  }

  RasterInputs in_;
  Tuples tuples_;
  std::unique_ptr<mmir::TupleSet> tupleset_;
  std::unique_ptr<mmir::OnionIndex> onion_;
  std::vector<std::vector<double>> weights_;
  std::vector<CompositeSpec> composites_;
  std::vector<mmir::CartesianQuery> queries_;
  std::vector<std::vector<RefEntry>> onion_refs_;
  std::vector<std::vector<RefEntry>> sproc_refs_;
  std::vector<std::vector<Step>> schedules_;
  std::size_t cursor_[kCallers] = {};
  std::atomic<std::size_t> next_cold_{0};
  mmir::obs::MetricsRegistry registry_;
  mmir::obs::Tracer tracer_{64};
  std::unique_ptr<mmir::QueryEngine> engine_;
  mmir::CacheStats result0_;
  mmir::CacheStats tile0_;
};

// ---------------------------------------------------------------------------

class RouterFanout final : public Workload {
 public:
  void generate(std::uint64_t seed) override { in_.generate(seed, 4, kSide, kPool); }
  void setup(SpanLog* spans) override {
    in_.build(spans);
    fleet_ = std::make_unique<Fleet>(in_);
  }
  void prepare_oracle() override { in_.compute_refs(); }
  void warm_up() override {
    Tally scratch;
    for (std::size_t i = 0; i < 8; ++i) op(scratch, nullptr);
  }
  void run(std::uint64_t stop_ns, Tally& tally, SpanLog* spans) override {
    while (now_ns() < stop_ns) {
      for (std::size_t r = 0; r < kRound; ++r) op(tally, spans);
    }
  }
  [[nodiscard]] const RasterInputs& raster_inputs() const override { return in_; }
  [[nodiscard]] bool combined_mode() const override { return true; }
  void layers(Layers& out, const Tally&, SpanLog& spans) override {
    probe_fleet(in_, out, spans);
  }
  [[nodiscard]] bool covers_service_layers() const override { return true; }

 private:
  static constexpr std::size_t kSide = 256;
  static constexpr std::size_t kPool = 64;
  static constexpr std::size_t kRound = 4;

  void op(Tally& tally, SpanLog* spans) {
    const std::size_t m = next_++ % kPool;
    const std::uint64_t trace = spans != nullptr ? spans->new_trace() : 0;
    SpanLog::Scope span(spans, "op.router_query", trace);
    const std::uint64_t t0 = now_ns();
    mmir::RasterTopK merged;
    {
      SpanLog::Scope s(spans, "net.router_query", trace, span.id());
      merged = fleet_->query(m);
    }
    record_answer(tally, in_.check(merged, m));
    tally.op(ms_between(t0, now_ns()), 1);
    tally.boundary();
  }

  RasterInputs in_;
  std::unique_ptr<Fleet> fleet_;
  std::size_t next_ = 0;
};

}  // namespace

void probe_service(std::uint64_t seed, Layers& out, SpanLog& spans) {
  constexpr std::uint64_t kProbeNs = 3'000'000'000ULL;
  ServeMix mix;
  mix.generate(seed);
  mix.setup(nullptr);
  mix.prepare_oracle();
  mix.warm_up();
  mix.mark();
  Tally tally;
  tally.begin();
  mix.run(now_ns() + kProbeNs, tally, nullptr);
  if (tally.failed != 0) throw std::runtime_error("service probe: " + tally.first_failure);
  Layers service;
  mix.layers(service, tally, spans);
  for (const auto& [name, value] : service) out[name] = value;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"scan_cold", "batch_backlog", "serve_mix",
                                                 "router_fanout"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "scan_cold") return std::make_unique<ScanCold>();
  if (name == "batch_backlog") return std::make_unique<BatchBacklog>();
  if (name == "serve_mix") return std::make_unique<ServeMix>();
  if (name == "router_fanout") return std::make_unique<RouterFanout>();
  return nullptr;
}

}  // namespace pb
