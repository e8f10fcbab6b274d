#pragma once
// Seeded input generation for the benchmark.
//
// Everything a workload feeds the engine is made here from the --seed value
// with a private splitmix64 stream: band planes, linear models, Onion tuples
// and composite-query degree tables.  The engine only ever sees the
// generated values (as Grids, LinearModels, TupleSets, CartesianQuery
// callbacks), never the seed, and the answer oracle (oracle.hpp) reads the
// same plain structures directly.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pb {

/// splitmix64: tiny, seedable, identical on every host.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31U);
  }
  /// Uniform in [0, 1).
  double uniform() noexcept { return static_cast<double>(next() >> 11U) * 0x1.0p-53; }
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }
  std::size_t below(std::size_t n) noexcept { return static_cast<std::size_t>(next() % n); }
  double normal() noexcept {
    const double u1 = uniform() + 0x1.0p-54;
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream for one purpose ("planes", "models", ...)
/// from the run seed.
inline SplitMix64 stream(std::uint64_t seed, std::uint64_t purpose) noexcept {
  SplitMix64 mix(seed * 0x2545f4914f6cdd1dULL + purpose);
  return SplitMix64(mix.next());
}

/// Co-registered band planes, row-major: band[b][y * width + x].
struct Planes {
  std::size_t width = 0;
  std::size_t height = 0;
  std::vector<std::vector<double>> band;

  [[nodiscard]] std::size_t pixels() const noexcept { return width * height; }
  [[nodiscard]] std::size_t bands() const noexcept { return band.size(); }
};

/// Smooth fields with a few hot spots of random sign over a low-frequency
/// wave, plus small uniform noise.  Spatial coherence keeps tile ranges
/// tight, so the data leg of the combined executor has tiles to prune.
///
/// Generation counts in set-up time, so it is kept cheap and the same for
/// every seed.  The blobs and the wave are separable in x and y, so a band
/// costs a few thousand exp/sin/cos calls rather than one exp per pixel and
/// blob: exp is much slower on the far-underflowing arguments of distant
/// blobs, and how many there are depends on where the seed puts them.
/// Factors below 1e-30 are flushed to 0 so no product goes subnormal.  The
/// per-pixel noise is uniform, with the spread of N(0, 0.02^2), because a
/// Box-Muller draw per pixel cost more than the rest of set-up.
inline Planes make_planes(std::uint64_t seed, std::size_t width, std::size_t height,
                          std::size_t bands) {
  constexpr std::size_t kBlobs = 16;
  constexpr double kNoise = 0.02 * 1.7320508075688772;  // sqrt(3) sigma
  SplitMix64 rng = stream(seed, 1);
  Planes p;
  p.width = width;
  p.height = height;
  p.band.assign(bands, std::vector<double>(width * height));
  const double w = static_cast<double>(width);
  const double h = static_cast<double>(height);
  const auto gauss = [](double d, double inv2s2) {
    const double e = -d * d * inv2s2;
    return e > -69.0 ? std::exp(e) : 0.0;
  };
  std::vector<double> amp(kBlobs);
  std::vector<std::vector<double>> gx(kBlobs, std::vector<double>(width));
  std::vector<std::vector<double>> gy(kBlobs, std::vector<double>(height));
  std::vector<double> wave_x(width);
  std::vector<double> wave_y(height);
  std::vector<double> row(kBlobs);
  for (std::size_t b = 0; b < bands; ++b) {
    for (std::size_t i = 0; i < kBlobs; ++i) {
      const double sigma = rng.uniform(0.02, 0.06) * w;
      const double cx = rng.uniform(0.0, w);
      const double cy = rng.uniform(0.0, h);
      const double inv2s2 = 1.0 / (2.0 * sigma * sigma);
      amp[i] = rng.uniform(-1.5, 1.5);
      for (std::size_t x = 0; x < width; ++x) gx[i][x] = gauss(static_cast<double>(x) - cx, inv2s2);
      for (std::size_t y = 0; y < height; ++y) gy[i][y] = gauss(static_cast<double>(y) - cy, inv2s2);
    }
    const double fx = rng.uniform(0.5, 2.0) * 6.283185307179586 / w;
    const double fy = rng.uniform(0.5, 2.0) * 6.283185307179586 / h;
    for (std::size_t x = 0; x < width; ++x) wave_x[x] = std::sin(fx * static_cast<double>(x));
    for (std::size_t y = 0; y < height; ++y) wave_y[y] = 0.3 * std::cos(fy * static_cast<double>(y));
    std::vector<double>& plane = p.band[b];
    for (std::size_t y = 0; y < height; ++y) {
      for (std::size_t i = 0; i < kBlobs; ++i) row[i] = amp[i] * gy[i][y];
      for (std::size_t x = 0; x < width; ++x) {
        double v = wave_y[y] * wave_x[x];
        for (std::size_t i = 0; i < kBlobs; ++i) v += row[i] * gx[i][x];
        plane[y * width + x] = v + kNoise * (2.0 * rng.uniform() - 1.0);
      }
    }
  }
  return p;
}

/// A linear scoring model: score = bias + sum_b w[b] * x[b].
struct ModelSpec {
  std::vector<double> w;
  double bias = 0.0;
};

inline std::vector<ModelSpec> make_models(std::uint64_t seed, std::uint64_t purpose,
                                          std::size_t count, std::size_t bands) {
  SplitMix64 rng = stream(seed, 100 + purpose);
  std::vector<ModelSpec> out(count);
  for (ModelSpec& m : out) {
    m.w.resize(bands);
    for (double& wi : m.w) wi = rng.uniform(-1.0, 1.0);
    m.bias = rng.uniform(-0.5, 0.5);
  }
  return out;
}

/// Row-major tuples for the Onion index.
struct Tuples {
  std::size_t dim = 0;
  std::vector<double> rows;

  [[nodiscard]] std::size_t size() const noexcept { return dim == 0 ? 0 : rows.size() / dim; }
};

inline Tuples make_tuples(std::uint64_t seed, std::size_t count, std::size_t dim) {
  SplitMix64 rng = stream(seed, 2);
  Tuples t;
  t.dim = dim;
  t.rows.resize(count * dim);
  for (double& v : t.rows) v = rng.normal();
  return t;
}

/// Weight vectors for Onion queries.
inline std::vector<std::vector<double>> make_weights(std::uint64_t seed, std::size_t count,
                                                     std::size_t dim) {
  SplitMix64 rng = stream(seed, 3);
  std::vector<std::vector<double>> out(count, std::vector<double>(dim));
  for (auto& w : out) {
    for (double& v : w) v = rng.uniform(-1.0, 1.0);
  }
  return out;
}

/// Degree tables of one fuzzy Cartesian composite query with the product
/// t-norm: unary[m * L + j] and binary[((m - 1) * L + i) * L + j].
struct CompositeSpec {
  std::size_t components = 0;
  std::size_t library = 0;
  std::vector<double> unary;
  std::vector<double> binary;

  [[nodiscard]] double u(std::size_t m, std::size_t j) const { return unary[m * library + j]; }
  [[nodiscard]] double b(std::size_t m, std::size_t i, std::size_t j) const {
    return binary[((m - 1) * library + i) * library + j];
  }
};

inline std::vector<CompositeSpec> make_composites(std::uint64_t seed, std::size_t count,
                                                  std::size_t components, std::size_t library) {
  SplitMix64 rng = stream(seed, 4);
  std::vector<CompositeSpec> out(count);
  for (CompositeSpec& c : out) {
    c.components = components;
    c.library = library;
    c.unary.resize(components * library);
    c.binary.resize((components - 1) * library * library);
    for (double& d : c.unary) d = rng.uniform(0.05, 1.0);
    for (double& d : c.binary) d = rng.uniform(0.05, 1.0);
  }
  return out;
}

}  // namespace pb
