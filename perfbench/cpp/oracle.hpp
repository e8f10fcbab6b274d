#pragma once
// Answer oracle, computed apart from the engine.
//
// References come from plain loops over the generated inputs (inputs.hpp):
//   * raster top-K: bias + sum w*x over the band planes, ordered by score
//     descending, then pixel rank (y * width + x) ascending;
//   * Onion top-K: a brute-force linear scan over every tuple;
//   * composite top-K: brute-force enumeration of all L^M assignments.
//
// A checked answer fails when its status is not complete, when a reported
// score is more than the tolerance away from the score the oracle computes
// for the same pixel/id/assignment, when it is out of order except among
// tied scores, or when its pixels/ids differ from the oracle's.  A differing
// member is accepted only as a tie: its own oracle score equals the oracle's
// score at that position within the tolerance (two candidates whose scores
// differ by rounding alone can legitimately swap).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/progressive_exec.hpp"
#include "index/onion.hpp"
#include "inputs.hpp"
#include "sproc/query.hpp"

namespace pb {

/// Relative score tolerance (absolute below magnitude 1).
inline double tolerance(double score) noexcept {
  return 1e-9 * std::max(1.0, std::abs(score));
}

/// One reference entry: an identity (pixel rank, tuple id or assignment
/// index) with its score.
struct RefEntry {
  std::uint64_t id = 0;
  double score = 0.0;
};

/// Keeps the K best entries by (score desc, id asc).
class RefTopK {
 public:
  explicit RefTopK(std::size_t k) : k_(k) {}
  void offer(double score, std::uint64_t id) {
    if (!std::isfinite(score)) return;
    const RefEntry e{id, score};
    if (held_.size() < k_) {
      held_.push_back(e);
      std::push_heap(held_.begin(), held_.end(), better);
    } else if (better(e, held_.front())) {
      std::pop_heap(held_.begin(), held_.end(), better);
      held_.back() = e;
      std::push_heap(held_.begin(), held_.end(), better);
    }
  }
  [[nodiscard]] std::vector<RefEntry> sorted() const {
    std::vector<RefEntry> out = held_;
    std::sort(out.begin(), out.end(), better);
    return out;
  }

 private:
  // Heap with the worst held entry on top: "better" as the heap's less.
  static bool better(const RefEntry& a, const RefEntry& b) {
    return a.score > b.score || (a.score == b.score && a.id < b.id);
  }
  std::size_t k_;
  std::vector<RefEntry> held_;
};

inline double raster_score(const Planes& p, const ModelSpec& m, std::size_t i) {
  double s = m.bias;
  for (std::size_t b = 0; b < p.bands(); ++b) s += m.w[b] * p.band[b][i];
  return s;
}

/// Raster top-K reference; ids are pixel ranks y * width + x.
inline std::vector<RefEntry> raster_reference(const Planes& p, const ModelSpec& m,
                                              std::size_t k) {
  RefTopK top(k);
  std::vector<double> row(p.width);
  for (std::size_t y = 0; y < p.height; ++y) {
    const std::size_t base = y * p.width;
    for (std::size_t x = 0; x < p.width; ++x) row[x] = m.bias;
    for (std::size_t b = 0; b < p.bands(); ++b) {
      const double wb = m.w[b];
      const double* plane = p.band[b].data() + base;
      for (std::size_t x = 0; x < p.width; ++x) row[x] += wb * plane[x];
    }
    for (std::size_t x = 0; x < p.width; ++x) top.offer(row[x], base + x);
  }
  return top.sorted();
}

inline double onion_score(const Tuples& t, const std::vector<double>& w, std::size_t id) {
  double s = 0.0;
  for (std::size_t d = 0; d < t.dim; ++d) s += w[d] * t.rows[id * t.dim + d];
  return s;
}

inline std::vector<RefEntry> onion_reference(const Tuples& t, const std::vector<double>& w,
                                             std::size_t k) {
  RefTopK top(k);
  for (std::size_t i = 0; i < t.size(); ++i) top.offer(onion_score(t, w, i), i);
  return top.sorted();
}

/// Assignment (items[0..M)) as a mixed-radix index, items[0] most significant.
inline std::uint64_t assignment_index(const CompositeSpec& c,
                                      const std::vector<std::uint32_t>& items) {
  std::uint64_t idx = 0;
  for (std::uint32_t j : items) idx = idx * c.library + j;
  return idx;
}

inline double composite_score(const CompositeSpec& c, const std::vector<std::uint32_t>& items) {
  double s = 1.0;
  for (std::size_t m = 0; m < c.components; ++m) {
    s *= c.u(m, items[m]);
    if (m > 0) s *= c.b(m, items[m - 1], items[m]);
  }
  return s;
}

inline std::vector<RefEntry> composite_reference(const CompositeSpec& c, std::size_t k) {
  RefTopK top(k);
  std::vector<std::uint32_t> items(c.components, 0);
  std::uint64_t total = 1;
  for (std::size_t m = 0; m < c.components; ++m) total *= c.library;
  for (std::uint64_t idx = 0; idx < total; ++idx) {
    std::uint64_t rest = idx;
    for (std::size_t m = c.components; m-- > 0;) {
      items[m] = static_cast<std::uint32_t>(rest % c.library);
      rest /= c.library;
    }
    const double s = composite_score(c, items);
    if (s > 0.0) top.offer(s, idx);
  }
  return top.sorted();
}

/// One engine answer reduced to what the checker compares: identities and
/// reported scores, best first, plus the status.
struct Answer {
  mmir::ResultStatus status = mmir::ResultStatus::kComplete;
  std::vector<RefEntry> hits;
};

inline Answer answer_of(const mmir::RasterTopK& r, std::size_t width) {
  Answer a;
  a.status = r.status;
  for (const mmir::RasterHit& h : r.hits) a.hits.push_back({h.y * width + h.x, h.score});
  return a;
}

inline Answer answer_of(const mmir::OnionTopK& r) {
  Answer a;
  a.status = r.status;
  for (const mmir::ScoredId& h : r.hits) a.hits.push_back({h.id, h.score});
  return a;
}

inline Answer answer_of(const mmir::CompositeTopK& r, const CompositeSpec& c) {
  Answer a;
  a.status = r.status;
  for (const mmir::CompositeMatch& m : r.matches) {
    a.hits.push_back({m.items.size() == c.components ? assignment_index(c, m.items)
                                                     : ~std::uint64_t{0},
                      m.score});
  }
  return a;
}

/// Checks `got` against the reference; `score_of(id)` is the oracle's own
/// score for an identity the engine returned (NaN when the id is invalid).
/// Returns an empty string when the answer is correct, else the reason.
template <typename ScoreOf>
std::string check_answer(const Answer& got, const std::vector<RefEntry>& ref, ScoreOf score_of) {
  if (got.status != mmir::ResultStatus::kComplete) {
    return std::string("status ") + std::string(mmir::to_string(got.status));
  }
  if (got.hits.size() != ref.size()) {
    return "returned " + std::to_string(got.hits.size()) + " hits, oracle has " +
           std::to_string(ref.size());
  }
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < got.hits.size(); ++i) {
    const RefEntry& h = got.hits[i];
    if (!seen.insert(h.id).second) return "duplicate id " + std::to_string(h.id);
    const double truth = score_of(h.id);
    if (!std::isfinite(truth) || std::abs(truth - h.score) > tolerance(truth)) {
      return "hit " + std::to_string(i) + " id " + std::to_string(h.id) + " reports score " +
             std::to_string(h.score) + ", oracle computes " + std::to_string(truth);
    }
    if (i > 0) {
      const RefEntry& prev = got.hits[i - 1];
      const bool tied = std::abs(prev.score - h.score) <= tolerance(h.score);
      if (h.score > prev.score && !tied) return "out of order at " + std::to_string(i);
    }
    if (h.id != ref[i].id && std::abs(truth - ref[i].score) > tolerance(ref[i].score)) {
      return "hit " + std::to_string(i) + " id " + std::to_string(h.id) + " differs from oracle id " +
             std::to_string(ref[i].id);
    }
  }
  return {};
}

inline std::string check_raster(const mmir::RasterTopK& r, const Planes& p, const ModelSpec& m,
                                const std::vector<RefEntry>& ref) {
  return check_answer(answer_of(r, p.width), ref, [&](std::uint64_t id) {
    return id < p.pixels() ? raster_score(p, m, id) : std::nan("");
  });
}

inline std::string check_onion(const mmir::OnionTopK& r, const Tuples& t,
                               const std::vector<double>& w, const std::vector<RefEntry>& ref) {
  return check_answer(answer_of(r), ref, [&](std::uint64_t id) {
    return id < t.size() ? onion_score(t, w, id) : std::nan("");
  });
}

inline std::string check_composite(const mmir::CompositeTopK& r, const CompositeSpec& c,
                                   const std::vector<RefEntry>& ref) {
  return check_answer(answer_of(r, c), ref, [&](std::uint64_t id) {
    std::uint64_t total = 1;
    for (std::size_t m = 0; m < c.components; ++m) total *= c.library;
    if (id >= total) return std::nan("");
    std::vector<std::uint32_t> items(c.components);
    for (std::size_t m = c.components; m-- > 0;) {
      items[m] = static_cast<std::uint32_t>(id % c.library);
      id /= c.library;
    }
    return composite_score(c, items);
  });
}

}  // namespace pb
