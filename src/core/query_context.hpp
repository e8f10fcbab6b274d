#pragma once
// QueryContext: the fault-tolerance envelope of one query execution.
//
// A production archive serving millions of users cannot let a single query
// run unbounded.  Every budget-aware execution path (the four progressive
// raster executors, the three SPROC processors, Onion top-K, the Fig. 5
// workflow) threads a QueryContext carrying
//
//   * a *cost budget* in elementary work units (model term operations),
//   * a *wall-clock deadline* (checked with amortized frequency so the hot
//     path pays an add + compare, not a clock read, per unit), and
//   * a *cooperative cancellation flag* owned by the caller.
//
// Executors ask for work before doing it: grant(u, n) for n whole pixels
// of u units each (the full-model scan kernels, once per rectangle) or
// charge(u) for one item (staged terms, SPROC steps, Onion points).  The
// first refusal latches a stop reason and every later request is refused
// too, so inner loops unwind naturally.  Executors then return whatever
// top-K prefix they accumulated, tagged with the ResultStatus and a *sound
// upper bound* on the score of anything they did not examine — a partial
// answer the caller can still reason about instead of an exception or an
// unbounded stall.
//
// Concurrency: one context is shared by every worker of a tile-parallel or
// sharded execution (engine/parallel_exec.hpp, engine/shard_exec.hpp), so
// the mutable execution state — spent counter, check tick, bad-point
// tally, latched stop reason — lives in relaxed atomics:
//
//   * grants are whole pixels.  grant(u, n) returns g ≤ n and charges
//     exactly g·u; a g below what the limits were asked for latches the
//     stop reason.  Callers request a whole tile or row band at once and
//     scan the granted prefix in row-major order, so the shared counter is
//     touched once per rectangle, not once per pixel, and a serial budgeted
//     run stops at exactly the pixel a per-pixel loop would.
//   * no overshoot: with an op budget the spent counter advances by
//     compare-exchange and never passes budget(); concurrent grants split
//     the remainder exactly (their sum is min(requested, budget / u)
//     pixels).  Without one it advances by a single fetch_add.
//   * check cadence: a context with a deadline or cancel flag caps each
//     grant at check_interval units (at least one pixel) and reads the
//     clock / flag whenever the shared tick crosses the interval, so a stop
//     is seen within one interval of granted work.
//   * chains: a child forwards each request to its parent first, then
//     applies its own limits and refunds the parent whatever those refuse,
//     so spent() is exact on both sides.
//   * the stop reason latches via compare-exchange: exactly one cause wins
//     and is never overwritten by a concurrently detected one.
//   * relaxed ordering is sufficient because the context only *steers*
//     control flow; result data produced by workers is published by the
//     thread pool's join, never through the context.
//
// Configuration (with_*) and reset() are NOT thread-safe: configure before
// sharing, reset only after all workers have joined.
//
// The class is fully header-only so leaf libraries (sproc, index) can use it
// without linking mmir_core; only the cold deadline/cancel path touches the
// clock, and it is kept out of grant()'s inlined fast path.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/result_status.hpp"

namespace mmir {

/// Budget / deadline / cancellation envelope for one query (or one batch of
/// queries: spent work accumulates across calls that share a context).
/// Safe to share across the workers of one parallel execution; see the
/// header comment for the exact guarantees.
class QueryContext {
 public:
  /// Default: unbounded — charge() never fails, queries behave exactly like
  /// the budget-unaware code paths.
  QueryContext() = default;

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // ------------------------------------------------------------- configuration

  /// Caps total charged work at `ops` elementary operations.
  QueryContext& with_op_budget(std::uint64_t ops) noexcept {
    budget_ = ops;
    return *this;
  }

  /// Stops the query once `deadline` passes (checked every check-interval
  /// charged units).
  QueryContext& with_deadline(std::chrono::steady_clock::time_point deadline) noexcept {
    deadline_ = deadline;
    has_deadline_ = true;
    return *this;
  }

  /// Convenience: deadline = now + d.
  QueryContext& with_timeout(std::chrono::nanoseconds d) noexcept {
    return with_deadline(std::chrono::steady_clock::now() + d);
  }

  /// Binds a caller-owned cancellation flag; the query stops soon after the
  /// flag becomes true.  The flag must outlive the context.
  QueryContext& with_cancel_flag(const std::atomic<bool>* flag) noexcept {
    cancel_ = flag;
    return *this;
  }

  /// Chains this context under `parent`: every grant is forwarded to the
  /// parent first (and refunded there when this context's own limits refuse
  /// it), so the *global* budget/deadline/cancel envelope stays exactly
  /// enforced across any number of children, and a parent stop
  /// latches the parent's reason here so inner loops unwind with the global
  /// verdict.  The child may add its own (tighter) deadline and cancel flag
  /// — the per-shard sub-deadline and hedge-cancellation seams of the shard
  /// fault domains (engine/fault_domain.hpp).  The parent must outlive the
  /// child; work charged by a child that is later discarded (a failed shard
  /// attempt) stays charged to the parent — the work was really done.
  QueryContext& with_parent(QueryContext* parent) noexcept {
    parent_ = parent;
    return *this;
  }

  /// Binds the query's trace span: executors hang their stage spans off it
  /// (obs::Span::child_of(ctx.span(), ...)), and the first charge failure
  /// notes the latched stop reason on it.  The span must outlive the
  /// execution; null (the default) disables tracing.  Not thread-safe:
  /// configure before sharing, like every with_*.
  QueryContext& with_span(const obs::Span* span) noexcept {
    span_ = span;
    return *this;
  }

  /// The query's trace span; nullptr when untraced.
  [[nodiscard]] const obs::Span* span() const noexcept { return span_; }

  /// How many granted units elapse between deadline / cancellation checks
  /// (default 1024); it also caps each grant of a context that has a
  /// deadline or cancel flag.  Lower values react faster and cost more
  /// clock reads.  The tick is shared, so W workers together read the clock
  /// once per interval of granted work.
  QueryContext& with_check_interval(std::uint64_t units) {
    MMIR_EXPECTS(units > 0);
    check_interval_ = units;
    return *this;
  }

  // ------------------------------------------------------------------ execution

  /// Grants up to `pixels` whole work items of `units_per_pixel` units each
  /// and returns how many may run; exactly granted × units_per_pixel is
  /// charged.  Fewer than requested without a stop only when a deadline or
  /// cancel flag caps the grant at one check interval: callers loop until
  /// they have their rectangle or a grant of 0.  A grant cut short by the
  /// budget (here or in a parent) latches the stop reason; once stopped,
  /// every grant is 0.  `pixels` == 0 returns 0 and charges nothing.  Safe
  /// to call concurrently from multiple workers (see header comment).
  [[nodiscard]] std::uint64_t grant(std::uint64_t units_per_pixel, std::uint64_t pixels) noexcept {
    if (stopped() || pixels == 0) return 0;
    if (parent_ != nullptr || paced() || units_per_pixel == 0) {
      return grant_chained(units_per_pixel, pixels);
    }
    const std::uint64_t granted = take(units_per_pixel, pixels);
    if (granted < pixels) latch(ResultStatus::kTruncatedBudget);
    return granted;
  }

  /// Charges `units` of work as one indivisible item: grant(units, 1).
  /// Returns true when execution may proceed; false once the budget cannot
  /// cover it, the deadline passed, or the caller cancelled.
  [[nodiscard]] bool charge(std::uint64_t units = 1) noexcept { return grant(units, 1) == 1; }

  /// Forces an immediate budget / deadline / cancellation check without
  /// charging work (used at coarse-grained checkpoints, e.g. between
  /// workflow iterations).  Latches like charge().
  [[nodiscard]] bool expired() noexcept {
    if (stop_.load(std::memory_order_relaxed) != ResultStatus::kComplete) return true;
    if (parent_ != nullptr && parent_->expired()) {
      latch(parent_->stop_reason());
      return true;
    }
    if (cancel_ != nullptr || has_deadline_) return !check_slow();
    return false;
  }

  /// True once a grant was refused (or expired() observed a stop condition).
  [[nodiscard]] bool stopped() const noexcept {
    return stop_.load(std::memory_order_relaxed) != ResultStatus::kComplete;
  }

  /// Why the query stopped; kComplete while still running.
  [[nodiscard]] ResultStatus stop_reason() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Records `n` poisoned (non-finite) data points skipped during evaluation.
  /// Forwarded to the parent (when chained) so the global tally is complete.
  void note_bad_points(std::uint64_t n = 1) noexcept {
    if (parent_ != nullptr) parent_->note_bad_points(n);
    bad_points_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bad_points() const noexcept {
    return bad_points_.load(std::memory_order_relaxed);
  }

  /// Total granted work; never above budget().
  [[nodiscard]] std::uint64_t spent() const noexcept {
    return spent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }
  [[nodiscard]] std::uint64_t remaining() const noexcept { return budget_ - spent(); }

  /// Clears spent work, the latched stop reason and the bad-point tally,
  /// keeping the configuration — for reusing one context across queries.
  /// Not thread-safe: call only when no worker is executing.
  void reset() noexcept {
    spent_.store(0, std::memory_order_relaxed);
    tick_.store(0, std::memory_order_relaxed);
    bad_points_.store(0, std::memory_order_relaxed);
    stop_.store(ResultStatus::kComplete, std::memory_order_relaxed);
  }

 private:
  /// True when grants are capped at one check interval and tick the
  /// deadline / cancel check.
  [[nodiscard]] bool paced() const noexcept { return has_deadline_ || cancel_ != nullptr; }

  /// grant() for a chained or paced context (or a zero-cost item): the
  /// parent decides first, then this context's budget, then the deadline /
  /// cancel check; whatever this context refuses goes back to the parent.
  std::uint64_t grant_chained(std::uint64_t units_per_pixel, std::uint64_t pixels) noexcept {
    if (units_per_pixel == 0) return expired() ? 0 : pixels;
    std::uint64_t want = pixels;
    if (paced()) want = std::min(want, std::max<std::uint64_t>(1, check_interval_ / units_per_pixel));
    if (parent_ != nullptr) {
      const std::uint64_t from_parent = parent_->grant(units_per_pixel, want);
      if (from_parent == 0) {
        latch(parent_->stop_reason());
        return 0;
      }
      if (from_parent < want && parent_->stopped()) latch(parent_->stop_reason());
      want = from_parent;
    }
    std::uint64_t granted = take(units_per_pixel, want);
    if (granted < want) latch(ResultStatus::kTruncatedBudget);
    if (granted > 0 && paced()) {
      const std::uint64_t units = granted * units_per_pixel;
      if (tick_.fetch_add(units, std::memory_order_relaxed) + units >= check_interval_ &&
          !check_slow()) {
        spent_.fetch_sub(units, std::memory_order_relaxed);
        granted = 0;
      }
    }
    if (parent_ != nullptr && granted < want) parent_->refund((want - granted) * units_per_pixel);
    return granted;
  }

  /// Takes up to `want` whole pixels of `units` (> 0) each from this
  /// context's own budget; never moves spent() past budget().  A request
  /// whose cost overflows 64 bits is cut to the largest one that does not.
  std::uint64_t take(std::uint64_t units, std::uint64_t want) noexcept {
    std::uint64_t cost = 0;
    if (__builtin_mul_overflow(want, units, &cost)) {
      want = std::numeric_limits<std::uint64_t>::max() / units;
      cost = want * units;
    }
    if (budget_ == std::numeric_limits<std::uint64_t>::max()) {
      spent_.fetch_add(cost, std::memory_order_relaxed);
      return want;
    }
    std::uint64_t spent = spent_.load(std::memory_order_relaxed);
    std::uint64_t granted = 0;
    do {
      const std::uint64_t room = budget_ - spent;
      granted = cost <= room ? want : room / units;  // divide only on a short grant
      if (granted == 0) return 0;
    } while (!spent_.compare_exchange_weak(spent, spent + granted * units,
                                           std::memory_order_relaxed));
    return granted;
  }

  /// Returns `units` a child granted out of this context but refused itself,
  /// up the whole chain (each ancestor charged them on the way down).
  void refund(std::uint64_t units) noexcept {
    spent_.fetch_sub(units, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->refund(units);
  }

  /// Latches the first stop reason; concurrent detections of a different
  /// cause lose the race and keep the original reason.  The winning latch is
  /// recorded on the trace span (exactly once, from the winning thread).
  void latch(ResultStatus reason) noexcept {
    ResultStatus expected = ResultStatus::kComplete;
    if (stop_.compare_exchange_strong(expected, reason, std::memory_order_relaxed,
                                      std::memory_order_relaxed) &&
        span_ != nullptr) {
      note_stop(reason);
    }
  }

  /// Cold: records the winning stop reason on the trace span.  Kept out of
  /// line so latch() — and through it charge()'s fail branch — stays small
  /// enough for charge() to inline into per-pixel loops; inlining the span
  /// note (string building + a mutex) there measurably slows the executors.
  [[gnu::noinline]] void note_stop(ResultStatus reason) const noexcept {
    span_->note("stop_reason", to_string(reason));
  }

  /// Cold path: consults the cancellation flag and the clock.  Marked
  /// noinline so the hot charge() stays small enough to inline.
  [[gnu::noinline]] bool check_slow() noexcept {
    tick_.store(0, std::memory_order_relaxed);
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      latch(ResultStatus::kCancelled);
      return false;
    }
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      latch(ResultStatus::kTruncatedDeadline);
      return false;
    }
    return true;
  }

  // Configuration: written before workers start, read-only afterwards.
  std::uint64_t budget_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t check_interval_ = 1024;
  std::chrono::steady_clock::time_point deadline_{};
  const std::atomic<bool>* cancel_ = nullptr;
  QueryContext* parent_ = nullptr;
  bool has_deadline_ = false;

  // Execution state: shared by workers, relaxed atomics (see header comment).
  std::atomic<std::uint64_t> spent_{0};
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> bad_points_{0};
  std::atomic<ResultStatus> stop_{ResultStatus::kComplete};

  // Tracing (cold: touched only at configuration and on the first failed
  // charge).  Kept after the hot atomics so adding it does not shift their
  // cache-line placement.
  const obs::Span* span_ = nullptr;
};

}  // namespace mmir
