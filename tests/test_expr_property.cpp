// Randomized property tests over the expression layer: generate arbitrary
// well-formed ASTs and check the invariants that the synthesis engine relies
// on — printer/parser round-trip, evaluator totality, canonicalization
// idempotence and semantics preservation, and unit-checker consistency.
#include <gtest/gtest.h>

#include <cmath>

#include "dsl/parse.hpp"
#include "dsl/simplify.hpp"
#include "dsl/units.hpp"
#include "reference_eval.hpp"
#include "util/rng.hpp"

namespace abg::dsl {
namespace {

// Random numeric expression of bounded depth. Constants are drawn from a
// small set including awkward values (0, negatives, non-integers).
ExprPtr random_num(util::Rng& rng, int depth);

ExprPtr random_bool(util::Rng& rng, int depth) {
  const auto a = random_num(rng, depth - 1);
  const auto b = random_num(rng, depth - 1);
  switch (rng.uniform_int(0, 2)) {
    case 0: return lt(a, b);
    case 1: return gt(a, b);
    default: return mod_eq(a, b);
  }
}

ExprPtr random_num(util::Rng& rng, int depth) {
  if (depth <= 1 || rng.chance(0.3)) {
    if (rng.chance(0.25)) {
      static const double kConsts[] = {0.0, 1.0, -0.7, 2.5, 8.0, 0.001};
      return constant(kConsts[rng.uniform_int(0, 5)]);
    }
    return sig(static_cast<Signal>(rng.uniform_int(0, kSignalCount - 1)));
  }
  switch (rng.uniform_int(0, 6)) {
    case 0: return add(random_num(rng, depth - 1), random_num(rng, depth - 1));
    case 1: return sub(random_num(rng, depth - 1), random_num(rng, depth - 1));
    case 2: return mul(random_num(rng, depth - 1), random_num(rng, depth - 1));
    case 3: return div(random_num(rng, depth - 1), random_num(rng, depth - 1));
    case 4: return cube(random_num(rng, depth - 1));
    case 5: return cbrt(random_num(rng, depth - 1));
    default:
      return cond(random_bool(rng, depth - 1), random_num(rng, depth - 1),
                  random_num(rng, depth - 1));
  }
}

cca::Signals random_signals(util::Rng& rng) {
  cca::Signals s;
  s.now = rng.uniform(0, 100);
  s.mss = 1448.0;
  s.cwnd = rng.uniform(1448.0, 1448.0 * 500);
  s.acked_bytes = rng.chance(0.2) ? 0.0 : 1448.0 * rng.uniform_int(1, 3);
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

class ExprProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExprProperty, PrinterParserRoundTrip) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    const auto e = random_num(rng, 4);
    const std::string printed = to_string(*e);
    auto r = parse(printed);
    ASSERT_TRUE(r) << printed << " -> " << r.error;
    EXPECT_TRUE(equal(*r.expr, *e)) << printed << " reparsed as " << to_string(*r.expr);
  }
}

TEST_P(ExprProperty, EvaluatorIsTotalOnRandomInputs) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    const auto e = random_num(rng, 4);
    const auto s = random_signals(rng);
    const double v = run_one(*e, s);
    // Either finite or an overflow inf; never a crash. NaN can only arise
    // from inf - inf style overflow chains.
    (void)v;
    SUCCEED();
  }
}

TEST_P(ExprProperty, CanonicalizeIsIdempotent) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    const auto e = random_num(rng, 4);
    const auto c1 = canonicalize(e);
    const auto c2 = canonicalize(c1);
    EXPECT_TRUE(equal(*c1, *c2)) << to_string(*e);
  }
}

TEST_P(ExprProperty, CanonicalizePreservesSemantics) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    const auto e = random_num(rng, 4);
    const auto c = canonicalize(e);
    for (int j = 0; j < 5; ++j) {
      const auto s = random_signals(rng);
      const double v1 = run_one(*e, s);
      const double v2 = run_one(*c, s);
      if (std::isfinite(v1) && std::isfinite(v2)) {
        EXPECT_NEAR(v1, v2, std::max(1e-9, std::fabs(v1) * 1e-12)) << to_string(*e);
      }
    }
  }
}

TEST_P(ExprProperty, CanonicalizePreservesStructureMetrics) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    const auto e = random_num(rng, 4);
    const auto c = canonicalize(e);
    EXPECT_EQ(depth(*e), depth(*c));
    EXPECT_EQ(node_count(*e), node_count(*c));
  }
}

TEST_P(ExprProperty, UnitCheckMatchesConcreteInferenceOnHoleFreeExprs) {
  // For expressions without holes, unit_check(bytes) must agree with
  // infer_unit_concrete returning exactly {1, 0} — except that constants are
  // dimensionless under concrete inference but polymorphic under unit_check,
  // so concrete success must imply unit_check success (never the reverse).
  util::Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    const auto e = random_num(rng, 3);
    if (hole_count(*e) > 0) continue;
    const auto concrete = infer_unit_concrete(*e);
    if (concrete && *concrete == kBytesUnit) {
      EXPECT_TRUE(unit_check(*to_sketch(e))) << to_string(*e);
    }
  }
}

TEST_P(ExprProperty, ToSketchThenFillIsStructurallyStable) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    const auto e = random_num(rng, 4);
    const auto sk = to_sketch(e);
    std::vector<double> ones(static_cast<std::size_t>(hole_count(*sk)), 1.0);
    const auto back = fill_holes(sk, ones);
    EXPECT_EQ(node_count(*e), node_count(*back));
    EXPECT_EQ(depth(*e), depth(*back));
    EXPECT_EQ(hole_count(*back), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprProperty, ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace abg::dsl
