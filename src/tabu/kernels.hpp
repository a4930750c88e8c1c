#pragma once
// Cache-aware move-evaluation kernels for the Add step (DESIGN.md "Data
// layout & move kernels").
//
// The Drop/Add tabu move spends nearly all its time deciding which item to
// add next: for every unselected candidate j it must (a) test feasibility
// against all m constraints and (b) compute the slack-scaled profit density.
// The historical path did that as two separate passes over column j of the
// row-major weight matrix — 2m strided reads at stride n per candidate.
//
// fit_and_score() fuses both passes into ONE sweep of the contiguous
// column-major mirror (Instance::weights_col), with an early-out on the
// first violated constraint. The feasibility test is bit-identical to the
// scalar pair (same comparison load + w > b, same scan order). The score
// differs from the scalar computation only at the ulp level: it multiplies
// each weight by the floored reciprocal slack that Solution maintains per
// move (Solution::inv_slack) instead of dividing, and sums through four
// independent accumulator chains instead of one — divisions and the serial
// FP-add latency chain dominate the scoring cost otherwise. Both tweaks
// perturb the result by ~1 ulp per term, far inside the 1e-9 property-test
// tolerance, and genuinely tied candidates (identical columns) still
// produce bitwise-equal scores, preserving first-seen tie-breaks.
//
// prune_add_candidate() is the O(1) pre-filter: an item whose smallest
// weight exceeds the solution's smallest slack cannot fit at the tightest
// constraint, so the column need not be touched at all. (Exact for the
// integral-valued weights every generator and OR-Library file produces.)
//
// fit_and_score_scalar() is the one scalar reference: the vector bodies are
// validated against it bit for bit, and bench_kernels times it per call.

#include <cstddef>
#include <limits>

#include "mkp/instance.hpp"
#include "mkp/solution.hpp"
#include "util/simd.hpp"

namespace pts::tabu::kernels {

/// Floor applied to per-constraint slack before dividing, so items touching
/// a nearly-saturated constraint score finite. Defined on Solution (which
/// precomputes the floored reciprocals); aliased here for the kernels API.
inline constexpr double kSlackFloor = mkp::Solution::kSlackFloor;

struct FitScore {
  bool fit = false;
  double score = 0.0;  ///< slack-scaled profit density; valid only when fit
};

namespace detail {

/// Solution-invariant pointers a candidate scan reads on every call:
/// derived once per AddScan instead of once per candidate. All spans come
/// from the padded mirrors, so vector bodies may read whole lane groups.
struct ScanCtx {
  const double* mirror = nullptr;   ///< weights_col_padded(0)
  const double* loads = nullptr;    ///< Solution::loads_padded
  const double* caps = nullptr;     ///< Instance::capacities_padded
  const double* inv = nullptr;      ///< Solution::inv_slack_padded
  const double* profits = nullptr;  ///< Instance::profits
  std::size_t m = 0;                ///< logical constraint count
  std::size_t stride = 0;           ///< padded per-column stride
};

using ScanBody = FitScore (*)(const ScanCtx&, std::size_t);

}  // namespace detail

/// True when item j can be rejected without reading its weight column:
/// min_i a_ij > min_i slack_i implies the weight at the tightest constraint
/// already exceeds that constraint's slack.
[[nodiscard]] inline bool prune_add_candidate(const mkp::Solution& x, std::size_t j) {
  return x.instance().min_col_weight(j) > x.min_slack();
}

/// Fused feasibility + score in one pass over the contiguous weight column,
/// early-out on the first violated constraint. When `fit` is false the
/// score is 0 and must not be used; callers always test fit first.
///
/// Dispatches on simd::active(): the scalar fused loop, or a bit-compatible
/// AVX2/NEON vector body (see kernels_simd.cpp — identical accumulation
/// tree, so the result is bitwise equal and fixed-seed trajectories do not
/// depend on the dispatch kind).
[[nodiscard]] FitScore fit_and_score(const mkp::Solution& x, std::size_t j);

/// Forced-path variants bypassing runtime dispatch, for equivalence tests
/// and benchmark A/B columns. fit_and_score_vector() runs the vector body
/// for `kind` and must not be called with a kind this CPU cannot execute
/// (simd::set_active/best_supported gate that); kScalar is accepted and
/// routes to the scalar body.
[[nodiscard]] FitScore fit_and_score_scalar(const mkp::Solution& x, std::size_t j);
[[nodiscard]] FitScore fit_and_score_vector(const mkp::Solution& x, std::size_t j,
                                            simd::Kind kind);

/// Per-sweep candidate evaluator: resolves dispatch and derives the
/// solution-invariant pointers ONCE, then evaluates candidates with the
/// same bodies (and the O(1) prune) the per-call API uses — results are
/// bitwise identical to fit_and_score(). A full Add scan touches every
/// unselected item, so the per-call setup (span derivation, dispatch
/// resolve, counter plumbing) is a measurable fraction of sweep time; the
/// engine's select_add and the kernel benchmark both scan through this.
///
/// Vector kinds additionally take a certain-fit fast path: when
/// Instance::max_col_weight(j) <= Solution::min_slack() the add is
/// guaranteed feasible (the dual of the prune bound, exact for the
/// integral weights every generator and OR-Library file produces), so the
/// feasibility lanes are skipped and only the score accumulation runs —
/// the accumulation tree is unchanged, so the score is still bitwise equal
/// to the checked path's. The scalar body stays the frozen reference the
/// vector bodies are validated against (and the benchmark baseline), so it
/// never takes the fast path.
///
/// The solution must not be mutated while a scan is live: applying a move
/// invalidates every cached pointer and the cached minimum slack.
class AddScan {
 public:
  /// Scan dispatching on simd::active().
  explicit AddScan(const mkp::Solution& x) : AddScan(x, simd::active()) {}
  /// Scan pinned to `kind` (benchmark columns, equivalence tests); `kind`
  /// must be executable on this CPU (see fit_and_score_vector).
  AddScan(const mkp::Solution& x, simd::Kind kind);

  /// Prune + evaluate candidate j, exactly like fit_and_score(x, j).
  [[nodiscard]] FitScore operator()(std::size_t j) const;

 private:
  const mkp::Instance* inst_;
  detail::ScanCtx ctx_;
  detail::ScanBody checked_;
  detail::ScanBody score_only_;  ///< certain-fit body; null for kScalar
  double min_slack_;
};

}  // namespace pts::tabu::kernels
