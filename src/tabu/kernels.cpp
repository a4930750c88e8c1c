#include "tabu/kernels.hpp"

#include "obs/counters.hpp"
#include "tabu/kernels_detail.hpp"

namespace pts::tabu::kernels {

namespace detail {

FitScore fit_and_score_scalar_body(const ScanCtx& ctx, std::size_t j) {
  const double* col = ctx.mirror + j * ctx.stride;
  const double* loads = ctx.loads;
  const double* caps = ctx.caps;
  const double* inv = ctx.inv;
  const std::size_t m = ctx.m;
  // Two latency-hiding tricks on top of the fused single pass:
  //  - multiply by the precomputed floored reciprocal slack
  //    (Solution::inv_slack) instead of dividing — slacks are loop-invariant
  //    across a whole candidate scan, and divisions dominate otherwise;
  //  - four independent accumulator chains, because a single serial
  //    `sum += w * inv` chain is bounded by FP-add latency (~4 cycles per
  //    constraint), not by throughput.
  // Feasibility comparisons are unchanged from the scalar path (same
  // `load + w > cap` form, ascending i, early-out on the first violation).
  // A zero weight contributes exactly +0.0, so the scalar path's explicit
  // w == 0 skip needs no branch here.
  //
  // The vector bodies (kernels_simd.cpp) replicate this accumulation tree
  // lane-for-lane (chain s_k == vector lane k, scalar tail into s0, final
  // (s0+s1)+(s2+s3) reduction), so their results are bitwise equal.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 3 < m; i += 4) {
    if (loads[i] + col[i] > caps[i]) return {};
    if (loads[i + 1] + col[i + 1] > caps[i + 1]) return {};
    if (loads[i + 2] + col[i + 2] > caps[i + 2]) return {};
    if (loads[i + 3] + col[i + 3] > caps[i + 3]) return {};
    s0 += col[i] * inv[i];
    s1 += col[i + 1] * inv[i + 1];
    s2 += col[i + 2] * inv[i + 2];
    s3 += col[i + 3] * inv[i + 3];
  }
  for (; i < m; ++i) {
    if (loads[i] + col[i] > caps[i]) return {};
    s0 += col[i] * inv[i];
  }
  return finish_score(ctx.profits[j], s0, s1, s2, s3);
}

}  // namespace detail

namespace {

detail::ScanBody pick_body(simd::Kind kind) {
  switch (kind) {
#if PTS_HAVE_AVX2_KERNELS
    case simd::Kind::kAvx2:
      return detail::fit_and_score_avx2_body;
#endif
#if PTS_HAVE_NEON_KERNELS
    case simd::Kind::kNeon:
      return detail::fit_and_score_neon_body;
#endif
    default:
      return detail::fit_and_score_scalar_body;
  }
}

// The certain-fit fast path is a vector-body feature: the scalar body is
// the frozen bitwise reference (and the benchmark's fused-scalar baseline),
// so kScalar gets no score-only variant and always runs the checked body.
detail::ScanBody pick_score_only(simd::Kind kind) {
  switch (kind) {
#if PTS_HAVE_AVX2_KERNELS
    case simd::Kind::kAvx2:
      return detail::score_only_avx2_body;
#endif
#if PTS_HAVE_NEON_KERNELS
    case simd::Kind::kNeon:
      return detail::score_only_neon_body;
#endif
    default:
      return nullptr;
  }
}

}  // namespace

AddScan::AddScan(const mkp::Solution& x, simd::Kind kind)
    : inst_(&x.instance()),
      ctx_(detail::make_scan_ctx(x)),
      checked_(pick_body(kind)),
      score_only_(pick_score_only(kind)),
      min_slack_(x.min_slack()) {}

FitScore AddScan::operator()(std::size_t j) const {
  if (inst_->min_col_weight(j) > min_slack_) {  // O(1) reject
    obs::bump(obs::Counter::kPruneEarlyOuts);
    return {};
  }
  obs::bump(obs::Counter::kFitScoreCalls);
  if (score_only_ != nullptr && inst_->max_col_weight(j) <= min_slack_) {
    return score_only_(ctx_, j);  // O(1) accept: no feasibility lanes
  }
  return checked_(ctx_, j);
}

FitScore fit_and_score(const mkp::Solution& x, std::size_t j) {
  if (prune_add_candidate(x, j)) {  // O(1) reject
    obs::bump(obs::Counter::kPruneEarlyOuts);
    return {};
  }
  obs::bump(obs::Counter::kFitScoreCalls);
  return pick_body(simd::active())(detail::make_scan_ctx(x), j);
}

FitScore fit_and_score_scalar(const mkp::Solution& x, std::size_t j) {
  if (prune_add_candidate(x, j)) {
    obs::bump(obs::Counter::kPruneEarlyOuts);
    return {};
  }
  obs::bump(obs::Counter::kFitScoreCalls);
  return detail::fit_and_score_scalar_body(detail::make_scan_ctx(x), j);
}

FitScore fit_and_score_vector(const mkp::Solution& x, std::size_t j, simd::Kind kind) {
  if (prune_add_candidate(x, j)) {
    obs::bump(obs::Counter::kPruneEarlyOuts);
    return {};
  }
  obs::bump(obs::Counter::kFitScoreCalls);
  return pick_body(kind)(detail::make_scan_ctx(x), j);
}

}  // namespace pts::tabu::kernels
