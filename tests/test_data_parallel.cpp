// ISSUE 7's bit-exactness contract, enforced: the SIMD DTW kernels and the
// batched bytecode replay path must be indistinguishable from the scalar
// references (scalar DTW, tree-walk replay, and reference_score_sketch's
// candidate loop) in every result that feeds selection — not approximately, but
// bit for bit. Every suite here runs in each CI SIMD matrix leg (ABG_SIMD =
// avx2/sse2/scalar), so a kernel that diverges on some host breaks the build
// on that host rather than silently reordering search winners.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "cca/signals.hpp"
#include "distance/distance.hpp"
#include "distance/simd.hpp"
#include "dsl/bytecode.hpp"
#include "dsl/eval.hpp"
#include "dsl/expr.hpp"
#include "obs/registry.hpp"
#include "synth/batch_eval.hpp"
#include "synth/refinement.hpp"
#include "synth/replay.hpp"
#include "trace/trace.hpp"
#include "reference_eval.hpp"
#include "util/rng.hpp"

namespace abg::distance {
namespace {

std::vector<double> random_walk(util::Rng& rng, std::size_t n, double lo = -1.0,
                                double hi = 1.0) {
  std::vector<double> v(n);
  double w = rng.uniform(-10, 10);
  for (auto& x : v) x = (w += rng.uniform(lo, hi));
  return v;
}

std::vector<Simd> available_vector_kernels() {
  std::vector<Simd> out;
  if (simd_available(Simd::kSse2)) out.push_back(Simd::kSse2);
  if (simd_available(Simd::kAvx2)) out.push_back(Simd::kAvx2);
  return out;
}

// The central claim: for any input and any cutoff, every kernel returns the
// bitwise-identical exact-or-+inf result. Series lengths straddle the
// cache-block strip height (128) so strip-carry logic, partial strips, and
// single-row strips are all exercised.
TEST(KernelEquivalence, AllKernelsMatchScalarBitwise) {
  const auto kernels = available_vector_kernels();
  if (kernels.empty()) GTEST_SKIP() << "no vector ISA on this host";
  util::Rng rng(29);
  const std::size_t lengths[] = {1, 2, 3, 5, 17, 64, 100, 127, 128, 129, 200, 257, 300};
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = lengths[static_cast<std::size_t>(
        rng.uniform_int(0, std::size(lengths) - 1))];
    const std::size_t m = lengths[static_cast<std::size_t>(
        rng.uniform_int(0, std::size(lengths) - 1))];
    const auto a = random_walk(rng, n);
    const auto b = random_walk(rng, m);
    for (double frac : {0.0, 0.05, 0.1, 0.3}) {
      const double exact = dtw(a, b, frac, kNoAbandon, Simd::kScalar);
      const double cutoffs[] = {kNoAbandon,       exact * 1.1, exact,
                                exact * 0.5,      exact * 0.1, 0.0,
                                std::nextafter(exact, kNoAbandon)};
      for (double cutoff : cutoffs) {
        const double want = dtw(a, b, frac, cutoff, Simd::kScalar);
        for (Simd k : kernels) {
          const double got = dtw(a, b, frac, cutoff, k);
          // Bitwise: either both +inf or the identical double.
          EXPECT_TRUE(got == want || (std::isinf(got) && std::isinf(want)))
              << simd_name(k) << " n=" << n << " m=" << m << " frac=" << frac
              << " cutoff=" << cutoff << " want=" << want << " got=" << got;
        }
      }
    }
  }
}

TEST(KernelEquivalence, CellCountsMatchScalarWhenUnbounded) {
  // With no cutoff the kernels walk exactly the same band, so the
  // distance.dtw_cells accounting must agree — this is what makes the CI
  // cells/evals ratio gate kernel-independent.
  const auto kernels = available_vector_kernels();
  if (kernels.empty()) GTEST_SKIP() << "no vector ISA on this host";
  util::Rng rng(31);
  auto cells_for = [](std::span<const double> a, std::span<const double> b, double frac,
                      Simd k) {
    auto& c = obs::counter("distance.dtw_cells");
    const std::uint64_t before = c.value();
    dtw(a, b, frac, kNoAbandon, k);
    return c.value() - before;
  };
  for (std::size_t n : {3u, 64u, 129u, 250u}) {
    const auto a = random_walk(rng, n);
    const auto b = random_walk(rng, n + 7);
    for (double frac : {0.0, 0.1}) {
      const std::uint64_t want = cells_for(a, b, frac, Simd::kScalar);
      for (Simd k : kernels) {
        EXPECT_EQ(cells_for(a, b, frac, k), want) << simd_name(k) << " n=" << n;
      }
    }
  }
}

TEST(KernelEquivalence, PerKernelCountersAttributeTheDp) {
  // The labeled distance.dtw_evals{kernel=...} series is the counter half of
  // the per-kernel provenance (the journal byte is the other half).
  const std::vector<double> a{0.0, 1.0, 2.0, 3.0}, b{0.0, 1.0, 2.0, 4.0};
  auto& labeled = obs::counter("distance.dtw_evals", {{"kernel", "scalar"}});
  const std::uint64_t before = labeled.value();
  dtw(a, b, 0.0, kNoAbandon, Simd::kScalar);
  EXPECT_EQ(labeled.value(), before + 1);
}

// CI dispatch self-test: each matrix leg sets ABG_SIMD and asserts the
// resolved kernel is the requested one (skip-with-notice when the ISA is
// unavailable on the runner, e.g. avx2 on an older box).
TEST(SimdDispatch, ResolvedKernelMatchesAbgSimdRequest) {
  const char* env = std::getenv("ABG_SIMD");
  if (env == nullptr || *env == '\0') GTEST_SKIP() << "ABG_SIMD not set";
  const auto want = parse_simd(env);
  ASSERT_TRUE(want.has_value()) << "unparseable ABG_SIMD=" << env;
  if (*want == Simd::kAuto) GTEST_SKIP() << "ABG_SIMD=auto pins no kernel";
  if (!simd_available(*want)) {
    GTEST_SKIP() << "requested ISA " << simd_name(*want) << " unavailable on this host";
  }
  EXPECT_EQ(resolve_simd(Simd::kAuto), *want);
}

TEST(SimdDispatch, ExplicitOptionBeatsEnvironment) {
  // An explicit Simd on the call must win over ABG_SIMD.
  if (!simd_available(Simd::kSse2)) GTEST_SKIP() << "no sse2 on this host";
  EXPECT_EQ(resolve_simd(Simd::kSse2), Simd::kSse2);
  EXPECT_EQ(resolve_simd(Simd::kScalar), Simd::kScalar);
}

TEST(SimdDispatch, AlwaysResolvesToAnAvailableKernel) {
  // Requesting any tier — including ones this host lacks — must land on an
  // available kernel via the avx2 -> sse2 -> scalar fallback chain.
  for (Simd req : {Simd::kAuto, Simd::kScalar, Simd::kSse2, Simd::kAvx2}) {
    const Simd got = resolve_simd(req);
    EXPECT_NE(got, Simd::kAuto);
    EXPECT_TRUE(simd_available(got)) << simd_name(req) << " -> " << simd_name(got);
  }
}

TEST(SimdDispatch, KernelNamesRoundTrip) {
  for (Simd s : {Simd::kScalar, Simd::kSse2, Simd::kAvx2, Simd::kAuto}) {
    const auto parsed = parse_simd(simd_name(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(parse_simd("avx512").has_value());
  EXPECT_FALSE(parse_simd("").has_value());
}

}  // namespace
}  // namespace abg::distance

namespace abg::dsl {
namespace {

// Random expression generator mirroring test_expr_property's, plus holes, so
// the bytecode compiler is fuzzed over the same space the enumerator emits.
ExprPtr random_num(util::Rng& rng, int depth, bool holes);

ExprPtr random_bool(util::Rng& rng, int depth, bool holes) {
  const auto a = random_num(rng, depth - 1, holes);
  const auto b = random_num(rng, depth - 1, holes);
  switch (rng.uniform_int(0, 2)) {
    case 0: return lt(a, b);
    case 1: return gt(a, b);
    default: return mod_eq(a, b);
  }
}

ExprPtr random_num(util::Rng& rng, int depth, bool holes) {
  if (depth <= 1 || rng.chance(0.3)) {
    if (holes && rng.chance(0.2)) return hole(static_cast<int>(rng.uniform_int(0, 3)));
    if (rng.chance(0.25)) {
      static const double kConsts[] = {0.0, 1.0, -0.7, 2.5, 8.0, 0.001};
      return constant(kConsts[rng.uniform_int(0, 5)]);
    }
    return sig(static_cast<Signal>(rng.uniform_int(0, kSignalCount - 1)));
  }
  switch (rng.uniform_int(0, 6)) {
    case 0: return add(random_num(rng, depth - 1, holes), random_num(rng, depth - 1, holes));
    case 1: return sub(random_num(rng, depth - 1, holes), random_num(rng, depth - 1, holes));
    case 2: return mul(random_num(rng, depth - 1, holes), random_num(rng, depth - 1, holes));
    case 3: return div(random_num(rng, depth - 1, holes), random_num(rng, depth - 1, holes));
    case 4: return cube(random_num(rng, depth - 1, holes));
    case 5: return cbrt(random_num(rng, depth - 1, holes));
    default:
      return cond(random_bool(rng, depth - 1, holes), random_num(rng, depth - 1, holes),
                  random_num(rng, depth - 1, holes));
  }
}

cca::Signals random_signals(util::Rng& rng) {
  cca::Signals s;
  s.now = rng.uniform(0, 100);
  s.mss = 1448.0;
  s.cwnd = rng.uniform(1448.0, 1448.0 * 500);
  s.acked_bytes = rng.chance(0.2) ? 0.0 : 1448.0 * static_cast<double>(rng.uniform_int(1, 3));
  s.rtt = rng.uniform(0.001, 0.3);
  s.srtt = s.rtt;
  s.min_rtt = s.rtt * rng.uniform(0.3, 1.0);
  s.max_rtt = s.rtt * rng.uniform(1.0, 3.0);
  s.ack_rate = rng.uniform(0.0, 2e6);
  s.rtt_gradient = rng.uniform(-0.5, 0.5);
  s.time_since_loss = rng.uniform(0.0, 30.0);
  s.cwnd_at_loss = rng.uniform(1448.0, 1448.0 * 500);
  return s;
}

// NaN-tolerant bitwise equality: eval is total but not finite (overflow to
// inf, inf - inf), and both paths must produce the same stream of doubles.
::testing::AssertionResult same_double(double got, double want) {
  if (got == want || (std::isnan(got) && std::isnan(want))) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "got " << got << " want " << want;
}

TEST(Bytecode, MatchesTreeWalkOnRandomExprs) {
  util::Rng rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    const auto e = random_num(rng, static_cast<int>(rng.uniform_int(1, 6)), /*holes=*/true);
    std::vector<double> vals;
    const int n_vals = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < n_vals; ++i) vals.push_back(rng.uniform(-3.0, 3.0));
    const auto filled = fill_holes(e, vals);
    const Program p = compile(*e);
    for (int s = 0; s < 4; ++s) {
      const auto sigs = random_signals(rng);
      EXPECT_TRUE(same_double(run(p, sigs, vals), eval(*filled, sigs)))
          << "expr: " << to_string(*e) << " trial " << trial;
    }
  }
}

TEST(Bytecode, BatchLanesMatchSingleLaneRuns) {
  util::Rng rng(103);
  for (int trial = 0; trial < 100; ++trial) {
    const auto e = random_num(rng, 5, /*holes=*/true);
    const Program p = compile(*e);
    const std::size_t n_lanes = static_cast<std::size_t>(rng.uniform_int(1, kBatchLanes));
    std::vector<double> lane_cwnd(n_lanes);
    std::vector<double> holes_sm(p.hole_slots * n_lanes);  // slot-major
    std::vector<std::vector<double>> per_lane(n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
      lane_cwnd[l] = rng.uniform(0.0, 1448.0 * 300);
      for (std::size_t s = 0; s < p.hole_slots; ++s) {
        const double v = rng.uniform(-2.0, 2.0);
        holes_sm[s * n_lanes + l] = v;
        per_lane[l].push_back(v);
      }
    }
    const auto base = random_signals(rng);
    double out[kBatchLanes];
    run_batch(p, base, lane_cwnd, holes_sm, n_lanes, out);
    for (std::size_t l = 0; l < n_lanes; ++l) {
      cca::Signals sigs = base;
      sigs.cwnd = lane_cwnd[l];
      EXPECT_TRUE(same_double(out[l], run(p, sigs, per_lane[l])))
          << "expr: " << to_string(*e) << " lane " << l;
    }
  }
}

TEST(Bytecode, StaticallyFalseGuardKeepsHoleSlots) {
  // A hole inside a guard that eval_bool rejects statically (a non-boolean
  // condition) is never executed, but it still owns its hole slot — the
  // bindings of the holes that DO execute must not shift.
  const auto e = cond(add(hole(0), hole(1)), hole(2), hole(3));
  const std::vector<double> vals{2.0, 3.0, 4.0, 5.0};
  const Program p = compile(*e);
  EXPECT_EQ(p.hole_slots, 4u);
  const cca::Signals sigs;
  EXPECT_EQ(run(p, sigs, vals), 5.0);  // guard is false -> else branch -> hole 3
  EXPECT_EQ(run(p, sigs, vals), eval(*fill_holes(e, vals), sigs));
}

}  // namespace
}  // namespace abg::dsl

namespace abg::synth {
namespace {

trace::Segment make_segment(util::Rng& rng, std::size_t n) {
  trace::Segment seg;
  seg.cca_name = "fuzz";
  double cwnd = 10 * 1448.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace::AckSample s;
    s.sig = dsl::random_signals(rng);
    s.sig.cwnd = cwnd;
    s.is_dup = rng.chance(0.1);
    cwnd = std::max(1448.0, cwnd + rng.uniform(-1448.0, 2 * 1448.0));
    s.cwnd_after = cwnd;
    seg.samples.push_back(s);
  }
  return seg;
}

TEST(BatchReplay, MatchesScalarReplayBitwise) {
  util::Rng rng(107);
  for (int trial = 0; trial < 40; ++trial) {
    const auto sketch = dsl::random_num(rng, 5, /*holes=*/true);
    const dsl::Program prog = dsl::compile(*sketch);
    const auto seg = make_segment(rng, static_cast<std::size_t>(rng.uniform_int(1, 60)));
    const std::size_t n_lanes = static_cast<std::size_t>(rng.uniform_int(1, dsl::kBatchLanes));
    std::vector<std::vector<double>> assigns(n_lanes);
    for (auto& a : assigns) {
      const int n_vals = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < n_vals; ++i) a.push_back(rng.uniform(-2.0, 2.0));
    }
    std::vector<const std::vector<double>*> lanes;
    for (const auto& a : assigns) lanes.push_back(&a);
    std::vector<std::vector<double>> got;
    replay_batch(prog, lanes, seg, {}, &got);
    ASSERT_EQ(got.size(), n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
      const auto want = replay(*dsl::fill_holes(sketch, assigns[l]), seg);
      ASSERT_EQ(got[l].size(), want.size()) << "lane " << l;
      for (std::size_t i = 0; i < want.size(); ++i) {
        // Bitwise: the synthesized series feeds DTW, whose result feeds
        // selection; any ULP of drift here could reorder winners.
        EXPECT_TRUE(dsl::same_double(got[l][i], want[i]))
            << "lane " << l << " sample " << i << " sketch " << dsl::to_string(*sketch);
      }
    }
  }
}

// End-to-end invariance at the score_sketch level: the scalar reference loop
// and the production loop under every available DTW kernel must select the
// same winner with the bitwise-identical distance.
TEST(BatchSearch, WinnerIdenticalAcrossBatchingAndKernels) {
  util::Rng seg_rng(109);
  std::vector<trace::Segment> segments;
  for (int i = 0; i < 3; ++i) segments.push_back(make_segment(seg_rng, 40));
  const std::vector<double> pool{0.25, 0.5, 1.0, 2.0};
  const auto sketch =
      dsl::add(dsl::sig(dsl::Signal::kCwnd),
               dsl::mul(dsl::hole(0), dsl::add(dsl::sig(dsl::Signal::kRenoInc),
                                               dsl::hole(1))));
  SynthesisOptions ref_opts;
  ref_opts.simd = distance::Simd::kScalar;
  ref_opts.concretize_budget = 24;
  util::Rng ref_rng(55);  // identical sampling per config
  std::size_t want_scored = 0;
  const auto want = reference_score_sketch(sketch, segments, pool, ref_opts, ref_rng, &want_scored);
  ASSERT_TRUE(want.valid());

  for (const distance::Simd simd :
       {distance::Simd::kScalar, distance::Simd::kSse2, distance::Simd::kAvx2}) {
    if (!distance::simd_available(simd)) continue;
    SynthesisOptions opts = ref_opts;
    opts.simd = simd;
    util::Rng rng(55);
    std::size_t scored = 0;
    EvalContext ctx;  // no bound: every distance exact
    const auto best = score_sketch(sketch, segments, pool, opts, rng, &scored, &ctx);
    ASSERT_TRUE(best.valid());
    const char* tier = distance::simd_name(simd);
    EXPECT_EQ(dsl::to_string(*best.handler), dsl::to_string(*want.handler)) << tier;
    EXPECT_EQ(best.distance, want.distance) << tier;  // bitwise
    EXPECT_EQ(scored, want_scored) << tier;
  }
}

// The production candidate loop against the scalar oracle on random sketches
// and segments, under every available DTW kernel, with an infinite and two
// finite bucket bounds. Whenever the reference best beats the bound,
// score_sketch must return exactly its handler and distance; otherwise its
// best must not beat the bound either. handlers_scored always matches.
TEST(EvalOracle, ScoreSketchMatchesReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(211);
  const std::vector<double> pool{0.25, 0.5, 1.0, 2.0, 8.0};
  int beaten_finite = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto sketch = dsl::random_num(rng, 5, /*holes=*/true);
    std::vector<trace::Segment> segments;
    const auto n_segments = rng.uniform_int(1, 3);
    for (std::int64_t i = 0; i < n_segments; ++i) {
      segments.push_back(make_segment(rng, static_cast<std::size_t>(rng.uniform_int(2, 50))));
    }
    const std::uint64_t seed = rng.next_u64();
    for (const distance::Simd simd :
         {distance::Simd::kScalar, distance::Simd::kSse2, distance::Simd::kAvx2}) {
      if (!distance::simd_available(simd)) continue;
      SynthesisOptions opts;
      opts.simd = simd;
      opts.concretize_budget = 20;
      util::Rng ref_rng(seed);
      std::size_t ref_scored = 0;
      const auto ref = reference_score_sketch(sketch, segments, pool, opts, ref_rng, &ref_scored);
      ASSERT_TRUE(ref.valid()) << dsl::to_string(*sketch);
      // A bound the reference best beats, and one it ties (and so does not).
      for (const double bound : {kInf, ref.distance * 1.5 + 1.0, ref.distance}) {
        util::Rng r(seed);
        std::size_t scored = 0;
        EvalContext ctx;
        ctx.abandon_above = bound;
        const auto got = score_sketch(sketch, segments, pool, opts, r, &scored, &ctx);
        const std::string where = dsl::to_string(*sketch) + " simd " +
                                  distance::simd_name(simd) + " bound " + std::to_string(bound);
        EXPECT_EQ(scored, ref_scored) << where;
        if (ref.distance < bound) {
          if (std::isfinite(bound)) ++beaten_finite;
          ASSERT_TRUE(got.valid()) << where;
          EXPECT_EQ(dsl::to_string(*got.handler), dsl::to_string(*ref.handler)) << where;
          EXPECT_TRUE(dsl::same_double(got.distance, ref.distance)) << where;
        } else {
          EXPECT_FALSE(got.distance < bound) << where;
        }
      }
    }
  }
  EXPECT_GT(beaten_finite, 0);
}

}  // namespace
}  // namespace abg::synth
