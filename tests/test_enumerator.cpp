#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "dsl/dsl.hpp"
#include "dsl/simplify.hpp"
#include "dsl/units.hpp"
#include "synth/buckets.hpp"
#include "synth/enumerator.hpp"

namespace abg::synth {
namespace {

EnumeratorOptions small_opts() {
  EnumeratorOptions o;
  o.max_depth = 2;
  o.max_nodes = 3;
  o.max_holes = 2;
  return o;
}

TEST(Enumerator, EmitsOnlyWellFormedNumSketches) {
  auto sketches = enumerate_all(dsl::reno_dsl(), small_opts(), 500);
  ASSERT_FALSE(sketches.empty());
  for (const auto& s : sketches) {
    EXPECT_TRUE(s->is_num()) << dsl::to_string(*s);
    EXPECT_LE(dsl::depth(*s), 2) << dsl::to_string(*s);
    EXPECT_LE(dsl::node_count(*s), 3) << dsl::to_string(*s);
  }
}

TEST(Enumerator, EmitsOnlyInDslSketches) {
  const auto d = dsl::reno_dsl();
  auto sketches = enumerate_all(d, small_opts(), 500);
  for (const auto& s : sketches) {
    for (auto sig : dsl::signals_used(*s)) EXPECT_TRUE(d.has_signal(sig));
    for (auto op : dsl::ops_used(*s)) EXPECT_TRUE(d.has_op(op));
  }
}

TEST(Enumerator, EmitsNoSimplifiableSketches) {
  auto sketches = enumerate_all(dsl::reno_dsl(), small_opts(), 500);
  for (const auto& s : sketches) {
    EXPECT_FALSE(dsl::is_simplifiable(*s)) << dsl::to_string(*s);
  }
}

TEST(Enumerator, EmitsNoDuplicatesUpToCommutativity) {
  auto sketches = enumerate_all(dsl::reno_dsl(), small_opts(), 500);
  std::set<std::size_t> hashes;
  for (const auto& s : sketches) {
    EXPECT_TRUE(hashes.insert(dsl::hash_expr(*dsl::canonicalize(s))).second)
        << dsl::to_string(*s);
  }
}

TEST(Enumerator, UnitCheckedSketchesPassLocalChecker) {
  auto sketches = enumerate_all(dsl::reno_dsl(), small_opts(), 300);
  for (const auto& s : sketches) {
    EXPECT_TRUE(dsl::unit_check(*s)) << dsl::to_string(*s);
  }
}

TEST(Enumerator, UnitCheckingPrunesTheSpace) {
  EnumeratorOptions with = small_opts();
  EnumeratorOptions without = small_opts();
  without.unit_check = false;
  const auto pruned = enumerate_all(dsl::reno_dsl(), with, 5000);
  const auto full = enumerate_all(dsl::reno_dsl(), without, 5000);
  EXPECT_LT(pruned.size(), full.size());
  // And some unit-violating sketch (e.g. time-since-loss alone) appears only
  // in the unchecked run.
  auto has_tsl_leaf = [](const std::vector<dsl::ExprPtr>& v) {
    for (const auto& s : v) {
      if (s->kind == dsl::Expr::Kind::kSignal &&
          s->signal == dsl::Signal::kTimeSinceLoss) {
        return true;
      }
    }
    return false;
  };
  EXPECT_FALSE(has_tsl_leaf(pruned));
  EXPECT_TRUE(has_tsl_leaf(full));
}

TEST(Enumerator, ExhaustsTinySpaces) {
  dsl::Dsl tiny = dsl::reno_dsl();
  tiny.signals = {dsl::Signal::kCwnd, dsl::Signal::kRenoInc};
  tiny.ops = {dsl::Op::kAdd};
  tiny.allow_constants = false;
  EnumeratorOptions o;
  o.max_depth = 2;
  o.max_nodes = 3;
  SketchEnumerator e(tiny, o);
  std::vector<std::string> all;
  while (auto s = e.next()) all.push_back(dsl::to_string(**s));
  EXPECT_TRUE(e.exhausted());
  // Exactly: cwnd, reno-inc, cwnd+reno-inc (x+x rejected, commutative dedup).
  std::set<std::string> got(all.begin(), all.end());
  EXPECT_EQ(got.size(), 3u) << ::testing::PrintToString(all);
  EXPECT_TRUE(got.count("cwnd"));
  EXPECT_TRUE(got.count("reno-inc"));
  EXPECT_TRUE(got.count("cwnd + reno-inc"));
}

TEST(Enumerator, MatchesReferenceEnumerationOnTinyDsl) {
  // Cross-check the SMT enumeration against a hand-rolled recursive
  // reference for a two-signal, two-op DSL at depth 2.
  dsl::Dsl tiny = dsl::reno_dsl();
  tiny.signals = {dsl::Signal::kCwnd, dsl::Signal::kMss};
  tiny.ops = {dsl::Op::kAdd, dsl::Op::kSub};
  tiny.allow_constants = false;
  EnumeratorOptions o;
  o.max_depth = 2;
  o.max_nodes = 3;
  auto got = enumerate_all(tiny, o, 1000);

  // Reference: leaves and all binary combinations that survive the filters.
  std::set<std::size_t> expected;
  std::vector<dsl::ExprPtr> leaves = {dsl::sig(dsl::Signal::kCwnd),
                                      dsl::sig(dsl::Signal::kMss)};
  for (const auto& l : leaves) expected.insert(dsl::hash_expr(*dsl::canonicalize(l)));
  for (const auto& a : leaves) {
    for (const auto& b : leaves) {
      for (auto op : {dsl::Op::kAdd, dsl::Op::kSub}) {
        auto e = dsl::node(op, {a, b});
        if (dsl::is_simplifiable(*e)) continue;
        if (!dsl::unit_check(*e)) continue;
        expected.insert(dsl::hash_expr(*dsl::canonicalize(e)));
      }
    }
  }
  std::set<std::size_t> got_hashes;
  for (const auto& s : got) got_hashes.insert(dsl::hash_expr(*dsl::canonicalize(s)));
  EXPECT_EQ(got_hashes, expected);
}

TEST(Enumerator, BucketConstraintForcesExactOpUsage) {
  EnumeratorOptions o;
  o.max_depth = 3;
  o.max_nodes = 5;
  o.bucket = std::vector<dsl::Op>{dsl::Op::kAdd, dsl::Op::kMul};
  auto sketches = enumerate_all(dsl::reno_dsl(), o, 200);
  ASSERT_FALSE(sketches.empty());
  for (const auto& s : sketches) {
    EXPECT_TRUE(same_ops(dsl::ops_used(*s), *o.bucket)) << dsl::to_string(*s);
  }
}

TEST(Enumerator, EmptyBucketYieldsLeafSketchesOnly) {
  EnumeratorOptions o;
  o.max_depth = 3;
  o.bucket = std::vector<dsl::Op>{};
  auto sketches = enumerate_all(dsl::reno_dsl(), o, 100);
  ASSERT_FALSE(sketches.empty());
  for (const auto& s : sketches) {
    EXPECT_NE(s->kind, dsl::Expr::Kind::kOp) << dsl::to_string(*s);
  }
}

TEST(Enumerator, BucketsPartitionTheSpace) {
  // The union of per-bucket enumerations equals the whole-space enumeration
  // (same DSL, same bounds), with no overlaps.
  dsl::Dsl tiny = dsl::reno_dsl();
  tiny.signals = {dsl::Signal::kCwnd, dsl::Signal::kRenoInc};
  tiny.ops = {dsl::Op::kAdd, dsl::Op::kMul};
  EnumeratorOptions o;
  o.max_depth = 2;
  o.max_nodes = 3;
  o.max_holes = 1;

  std::set<std::size_t> whole;
  for (const auto& s : enumerate_all(tiny, o, 10000)) {
    whole.insert(dsl::hash_expr(*dsl::canonicalize(s)));
  }
  std::set<std::size_t> unioned;
  std::size_t total = 0;
  for (const auto& b : make_buckets(tiny)) {
    EnumeratorOptions bo = o;
    bo.bucket = b.ops;
    const auto part = enumerate_all(tiny, bo, 10000);
    total += part.size();
    for (const auto& s : part) unioned.insert(dsl::hash_expr(*dsl::canonicalize(s)));
  }
  EXPECT_EQ(unioned, whole);
  EXPECT_EQ(total, whole.size());  // disjoint
}

TEST(Enumerator, HoleBudgetIsRespected) {
  EnumeratorOptions o;
  o.max_depth = 3;
  o.max_nodes = 7;
  o.max_holes = 1;
  auto sketches = enumerate_all(dsl::reno_dsl(), o, 300);
  for (const auto& s : sketches) {
    EXPECT_LE(dsl::hole_count(*s), 1) << dsl::to_string(*s);
  }
}

TEST(Enumerator, CountsModelsAndEmissions) {
  SketchEnumerator e(dsl::reno_dsl(), small_opts());
  for (int i = 0; i < 10; ++i) {
    if (!e.next()) break;
  }
  EXPECT_GE(e.models_enumerated(), e.sketches_emitted());
  EXPECT_EQ(e.sketches_emitted(), 10u);
}

// A bucket whose operators need more nodes than max_nodes allows is empty: it
// starts exhausted and never builds a level. Every other bucket starts open.
TEST(Enumerator, SizeInfeasibleBucketsBuildNoSolver) {
  const auto d = dsl::reno_dsl();
  EnumeratorOptions o;
  o.max_depth = 3;
  o.max_nodes = 5;
  o.max_holes = 2;
  const auto buckets = make_buckets(d);
  std::size_t feasible = 0;
  std::vector<bool> fits;
  for (const auto& b : buckets) {
    int need = 1;
    for (dsl::Op op : b.ops) need += dsl::op_arity(op);
    fits.push_back(need <= *o.max_nodes);
    feasible += fits.back() ? 1 : 0;
  }
  ASSERT_EQ(buckets.size(), 128u);
  EXPECT_EQ(feasible, 11u);

  for (std::size_t i = 0; i < buckets.size(); ++i) {
    EnumeratorOptions bo = o;
    bo.bucket = buckets[i].ops;
    SketchEnumerator e(d, bo);
    if (fits[i]) {
      EXPECT_FALSE(e.exhausted()) << buckets[i].label;
      continue;
    }
    EXPECT_TRUE(e.exhausted()) << buckets[i].label;
    EXPECT_EQ(e.models_enumerated(), 0u) << buckets[i].label;
    EXPECT_FALSE(e.next().has_value()) << buckets[i].label;
    EXPECT_EQ(e.sketches_emitted(), 0u) << buckets[i].label;
  }
}

// {?:,<,>} fits reno-search's node budget (1 + 3 + 2 + 2 = 8 <= 9) but holds no
// sketch: comparisons only appear as a guard, and a second conditional to
// hold the second comparison needs 11 nodes. The generator proves it empty by
// building its levels.
TEST(Enumerator, FeasibleLookingBucketWithNoSketchExhausts) {
  EnumeratorOptions o;
  o.max_depth = 4;
  o.max_nodes = 9;
  o.max_holes = 3;
  o.bucket = std::vector<dsl::Op>{dsl::Op::kCond, dsl::Op::kLt, dsl::Op::kGt};
  SketchEnumerator e(dsl::reno_dsl(), o);
  EXPECT_FALSE(e.exhausted());
  EXPECT_FALSE(e.next().has_value());
  EXPECT_TRUE(e.exhausted());
  EXPECT_EQ(e.sketches_emitted(), 0u);
  EXPECT_EQ(e.models_enumerated(), 0u);
}

// The order within a size is the mixed structural hash of each canonical
// sketch, a function of the DSL and the bounds alone. Pinned so that a change
// to it (which changes every search's sample) is deliberate.
TEST(Enumerator, OrderWithinASizeIsPinned) {
  EnumeratorOptions o;
  o.max_depth = 3;
  o.max_nodes = 5;
  o.max_holes = 2;
  o.bucket = std::vector<dsl::Op>{dsl::Op::kAdd};
  std::vector<std::string> got;
  for (const auto& s : enumerate_all(dsl::reno_dsl(), o, 8)) got.push_back(dsl::to_string(*s));
  const std::vector<std::string> want{"mss + cwnd",   "acked + c0",     "mss + c0",
                                      "mss + reno-inc", "mss + acked",  "acked + cwnd",
                                      "cwnd + c0",      "acked + reno-inc"};
  EXPECT_EQ(got, want);
}

// A stop that fires while a level is built drops the level: next() returns
// nullopt without exhausting or failing, and the next call builds the level
// again, so the sketches and the tree count match an uninterrupted run.
TEST(Enumerator, StopDropsALevelThatTheNextCallRebuilds) {
  EnumeratorOptions o;
  o.max_depth = 4;
  o.max_nodes = 9;
  o.max_holes = 3;
  o.bucket = std::vector<dsl::Op>{dsl::Op::kAdd, dsl::Op::kSub, dsl::Op::kMul, dsl::Op::kDiv};
  const auto want = enumerate_all(dsl::reno_dsl(), o, 50);
  ASSERT_EQ(want.size(), 50u);

  SketchEnumerator e(dsl::reno_dsl(), o);
  int polls = 0;
  EXPECT_FALSE(e.next([&polls] { return ++polls == 3; }).has_value());
  EXPECT_EQ(polls, 3);
  EXPECT_FALSE(e.exhausted());
  EXPECT_TRUE(e.status().is_ok());
  EXPECT_EQ(e.models_enumerated(), 0u);
  for (const auto& w : want) {
    const auto s = e.next();
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(dsl::to_string(**s), dsl::to_string(*w));
  }
  SketchEnumerator fresh(dsl::reno_dsl(), o);
  for (std::size_t i = 0; i < want.size(); ++i) fresh.next();
  EXPECT_EQ(e.models_enumerated(), fresh.models_enumerated());
}

// At a DSL's own bounds a bucket can need more memory than the budget: the
// enumerator then fails promptly with kResourceExhausted naming the bucket,
// frees what it held and stays failed.
TEST(Enumerator, BudgetRunsOutWithResourceExhausted) {
  EnumeratorBudget budget(16u << 20);
  EnumeratorOptions o;
  o.max_depth = 5;
  o.max_nodes = 15;
  o.max_holes = 4;
  o.bucket = std::vector<dsl::Op>{dsl::Op::kAdd, dsl::Op::kSub, dsl::Op::kCbrt};
  o.budget = &budget;
  const auto start = std::chrono::steady_clock::now();
  SketchEnumerator e(dsl::dsl_by_name("cubic"), o);
  EXPECT_FALSE(e.next().has_value());
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(), 5.0);
  EXPECT_FALSE(e.exhausted());
  EXPECT_EQ(e.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_NE(e.status().message().find("{+,-,cbrt}"), std::string::npos) << e.status().message();
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_FALSE(e.next().has_value());
  EXPECT_EQ(e.status().code(), util::StatusCode::kResourceExhausted);
}

// Under unit checking, a bucket of only +, - and ^3 keeps every node at the
// root's bytes unit, where no cube fits: it starts exhausted at any bounds
// (building its levels at the DSL's own bounds took 47 s and 1.3 GB). Without
// unit checking the same bucket holds sketches.
TEST(Enumerator, CubeBucketWithoutAUnitInverseStartsExhausted) {
  EnumeratorOptions o;
  o.max_depth = 5;
  o.max_nodes = 15;
  o.max_holes = 4;
  o.bucket = std::vector<dsl::Op>{dsl::Op::kAdd, dsl::Op::kSub, dsl::Op::kCube};
  SketchEnumerator e(dsl::dsl_by_name("cubic"), o);
  EXPECT_TRUE(e.exhausted());
  EXPECT_FALSE(e.next().has_value());
  EXPECT_EQ(e.models_enumerated(), 0u);

  o.max_depth = 4;
  o.max_nodes = 6;
  o.unit_check = false;
  EXPECT_FALSE(enumerate_all(dsl::dsl_by_name("cubic"), o, 1).empty());
}

// Enumerators sharing a budget charge it while they grow and give it all
// back when they go.
TEST(Enumerator, SharedBudgetIsReleasedOnDestruction) {
  EnumeratorBudget budget(64u << 20);
  EnumeratorOptions o;
  o.max_depth = 4;
  o.max_nodes = 9;
  o.max_holes = 3;
  o.budget = &budget;
  {
    o.bucket = std::vector<dsl::Op>{dsl::Op::kAdd, dsl::Op::kMul};
    SketchEnumerator a(dsl::reno_dsl(), o);
    o.bucket = std::vector<dsl::Op>{dsl::Op::kSub, dsl::Op::kDiv};
    SketchEnumerator b(dsl::reno_dsl(), o);
    ASSERT_TRUE(a.next().has_value());
    const std::size_t one = budget.used();
    EXPECT_GT(one, 0u);
    ASSERT_TRUE(b.next().has_value());
    EXPECT_GT(budget.used(), one);
  }
  EXPECT_EQ(budget.used(), 0u);
}

}  // namespace
}  // namespace abg::synth
