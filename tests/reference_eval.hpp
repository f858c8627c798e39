// The test oracles for handler evaluation. The program runs handlers only
// through the bytecode interpreter (dsl::compile + dsl::run_batch, stepped by
// synth::replay_batch); the code here spells the same semantics out the
// plain way, and nothing in src/ calls it. Tests hold the production path to
// it bit for bit, as the scalar DTW is the oracle for the SIMD kernels:
//
//   - dsl::eval / dsl::eval_bool: the tree-walking expression evaluator.
//   - synth::reference_replay: a segment replay stepped with eval.
//   - synth::reference_replay_trace: the same over a whole trace, applying
//     the loss handler at loss samples.
//   - synth::reference_score_sketch: the scalar candidate loop. Every
//     concretized handler is tree-walk replayed and scored exactly, with no
//     abandon bound; the best is the first strict minimum in assignment
//     order.
//
// dsl::run_one is the production interpreter on one lane, for tests that
// check an expression's value rather than a replay.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "cca/signals.hpp"
#include "distance/distance.hpp"
#include "dsl/bytecode.hpp"
#include "dsl/expr.hpp"
#include "synth/concretize.hpp"
#include "synth/refinement.hpp"
#include "synth/replay.hpp"
#include "synth/shard.hpp"
#include "trace/trace.hpp"

namespace abg::dsl {

// Evaluate a numeric expression. Holes evaluate as 1.0 (fill them first).
// Division by zero yields 0; a conditional whose guard is not a comparison
// takes its else arm.
inline double eval(const Expr& e, const cca::Signals& sig);

// Evaluate a boolean expression (kLt/kGt/kModEq root); any other root is
// false.
inline bool eval_bool(const Expr& e, const cca::Signals& sig) {
  if (e.kind != Expr::Kind::kOp) return false;
  switch (e.op) {
    case Op::kLt: return eval(*e.children[0], sig) < eval(*e.children[1], sig);
    case Op::kGt: return eval(*e.children[0], sig) > eval(*e.children[1], sig);
    case Op::kModEq: {
      const double a = std::fabs(eval(*e.children[0], sig));
      const double b = std::fabs(eval(*e.children[1], sig));
      if (b <= 0 || !std::isfinite(a) || !std::isfinite(b)) return false;
      const double r = std::fmod(a, b);
      return r <= kModTolerance * b || r >= b * (1.0 - kModTolerance);
    }
    default: return false;
  }
}

inline double eval(const Expr& e, const cca::Signals& sig) {
  switch (e.kind) {
    case Expr::Kind::kSignal: return signal_value(e.signal, sig);
    case Expr::Kind::kConst: return e.value;
    case Expr::Kind::kHole: return 1.0;
    case Expr::Kind::kOp: break;
  }
  switch (e.op) {
    case Op::kAdd: return eval(*e.children[0], sig) + eval(*e.children[1], sig);
    case Op::kSub: return eval(*e.children[0], sig) - eval(*e.children[1], sig);
    case Op::kMul: return eval(*e.children[0], sig) * eval(*e.children[1], sig);
    case Op::kDiv: {
      const double denom = eval(*e.children[1], sig);
      return denom != 0.0 ? eval(*e.children[0], sig) / denom : 0.0;
    }
    case Op::kCond:
      return eval_bool(*e.children[0], sig) ? eval(*e.children[1], sig)
                                            : eval(*e.children[2], sig);
    case Op::kCube: {
      const double v = eval(*e.children[0], sig);
      return v * v * v;
    }
    case Op::kCbrt: return std::cbrt(eval(*e.children[0], sig));
    case Op::kLt:
    case Op::kGt:
    case Op::kModEq:
      return eval_bool(e, sig) ? 1.0 : 0.0;
  }
  return 0.0;
}

// Compile `e` (hole-free) and run it on one lane whose window is sig.cwnd.
inline double run_one(const Expr& e, const cca::Signals& sig) {
  const Program p = compile(e);
  double out = 0.0;
  run_batch(p, sig, {&sig.cwnd, 1}, {}, 1, &out);
  return out;
}

}  // namespace abg::dsl

namespace abg::synth {

namespace reference_detail {

// One tree-walk replay step: the handler sees the observed signals with the
// candidate's own window; a non-finite output holds the window, a finite one
// is clamped to [min_cwnd_pkts, max_cwnd_pkts] MSS.
inline void step(const dsl::Expr& handler, const trace::AckSample& sample, double mss,
                 const ReplayOptions& opts, double* cwnd) {
  cca::Signals sig = sample.sig;
  sig.cwnd = *cwnd;
  const double next = dsl::eval(handler, sig);
  if (std::isfinite(next)) {
    *cwnd = std::clamp(next, opts.min_cwnd_pkts * mss, opts.max_cwnd_pkts * mss);
  }
}

// The starting window and MSS: the first sample's, with one MSS standing in
// for a non-finite window and 1 for a non-positive MSS.
inline void start(const trace::AckSample& first, double* cwnd, double* mss) {
  *mss = first.sig.mss > 0 ? first.sig.mss : 1.0;
  *cwnd = std::isfinite(first.sig.cwnd) ? first.sig.cwnd : *mss;
}

}  // namespace reference_detail

inline std::vector<double> reference_replay(const dsl::Expr& handler,
                                            const trace::Segment& segment,
                                            const ReplayOptions& opts = {}) {
  std::vector<double> out;
  if (segment.samples.empty()) return out;
  double cwnd = 0.0, mss = 1.0;
  reference_detail::start(segment.samples.front(), &cwnd, &mss);
  for (const auto& sample : segment.samples) {
    if (!sample.is_dup && sample.sig.acked_bytes > 0) {
      reference_detail::step(handler, sample, mss, opts, &cwnd);
    }
    out.push_back(cwnd / mss);
  }
  return out;
}

inline std::vector<double> reference_replay_trace(const dsl::Expr& ack_handler,
                                                  const dsl::Expr& loss_handler,
                                                  const trace::Trace& t,
                                                  const ReplayOptions& opts = {}) {
  std::vector<double> out;
  if (t.samples.empty()) return out;
  double cwnd = 0.0, mss = 1.0;
  reference_detail::start(t.samples.front(), &cwnd, &mss);
  for (const auto& sample : t.samples) {
    if (sample.loss_event) {
      reference_detail::step(loss_handler, sample, mss, opts, &cwnd);
    } else if (!sample.is_dup && sample.sig.acked_bytes > 0) {
      reference_detail::step(ack_handler, sample, mss, opts, &cwnd);
    }
    out.push_back(cwnd / mss);
  }
  return out;
}

inline ScoredHandler reference_score_sketch(const dsl::ExprPtr& sketch,
                                            const std::vector<trace::Segment>& segments,
                                            const std::vector<double>& constant_pool,
                                            const SynthesisOptions& opts, util::Rng& rng,
                                            std::size_t* handlers_scored = nullptr) {
  ScoredHandler best;
  best.sketch = sketch;
  ConcretizeOptions copts;
  copts.budget = opts.concretize_budget;
  const distance::DistanceOptions dopts = effective_distance_options(opts);
  for (const auto& assign : enumerate_assignments(*sketch, constant_pool, copts, rng)) {
    const auto handler = dsl::fill_holes(sketch, assign);
    double d = 0.0;
    for (const auto& seg : segments) {
      d += distance::compute(opts.metric, reference_replay(*handler, seg),
                             observed_series_pkts(seg), dopts);
    }
    if (handlers_scored) ++*handlers_scored;
    if (d < best.distance) {
      best.distance = d;
      best.handler = handler;
    }
  }
  return best;
}

}  // namespace abg::synth
