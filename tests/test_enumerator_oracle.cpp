// synth::SketchEnumerator against the Z3 encoding of the same space
// (z3_oracle.hpp). For every curated DSL, every (bucket, size) must hold the
// same multiset of canonical sketch hashes on both sides, and the generator
// must hand the post-filter exactly as many trees as Z3 finds models. One
// test per DSL and mode, so ctest -j spreads the solver time.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dsl/dsl.hpp"
#include "dsl/expr.hpp"
#include "synth/buckets.hpp"
#include "synth/enumerator.hpp"
#include "z3_oracle.hpp"

namespace abg::synth {
namespace {

using BySize = std::map<int, std::multiset<std::size_t>>;

BySize generated(const dsl::Dsl& d, const EnumeratorOptions& o, std::size_t* models) {
  SketchEnumerator e(d, o);
  BySize out;
  while (auto s = e.next()) out[dsl::node_count(**s)].insert(dsl::hash_expr(**s));
  EXPECT_TRUE(e.exhausted());
  *models = e.models_enumerated();
  return out;
}

void expect_same_space(const dsl::Dsl& d, const EnumeratorOptions& o, const std::string& what) {
  const Z3Space z3 = z3_enumerate(d, o);
  BySize want;
  for (const auto& [size, hashes] : z3.sketches) want[size].insert(hashes.begin(), hashes.end());
  std::size_t models = 0;
  const BySize got = generated(d, o, &models);
  EXPECT_EQ(models, z3.models) << d.name << " " << what;
  std::set<int> sizes;
  for (const auto& [size, hashes] : want) sizes.insert(size);
  for (const auto& [size, hashes] : got) sizes.insert(size);
  for (int size : sizes) {
    const auto w = want.find(size);
    const auto g = got.find(size);
    const std::size_t nw = w == want.end() ? 0 : w->second.size();
    const std::size_t ng = g == got.end() ? 0 : g->second.size();
    ASSERT_EQ(ng, nw) << d.name << " " << what << " size " << size;
    EXPECT_TRUE(w->second == g->second) << d.name << " " << what << " size " << size;
  }
}

EnumeratorOptions bounds(int depth, int nodes, int holes) {
  EnumeratorOptions o;
  o.max_depth = depth;
  o.max_nodes = nodes;
  o.max_holes = holes;
  return o;
}

// Per-bucket bounds. Z3 finds the models of one size by blocking them one at
// a time, so its cost grows faster than the space: each DSL gets bounds that
// keep its test to seconds. DSLs that share a grammar (rate-delay, delay7,
// delay11; vegas, vegas11) get different bounds, so that together they also
// cover conditional buckets (which need 6 nodes) and the hole-free space.
// Depth 4 triples the heap Z3 encodes and stays out of reach.
EnumeratorOptions bucket_bounds(const std::string& name) {
  if (name == "reno") return bounds(3, 6, 1);
  if (name == "cubic") return bounds(3, 5, 2);
  if (name == "rate-delay") return bounds(3, 4, 2);
  if (name == "vegas") return bounds(3, 5, 0);
  if (name == "bbr") return bounds(3, 5, 2);
  if (name == "delay7") return bounds(3, 5, 0);
  if (name == "delay11") return bounds(3, 6, 0);
  return bounds(3, 4, 2);  // vegas11
}

class EnumeratorOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(EnumeratorOracle, EveryBucketMatchesZ3) {
  const dsl::Dsl d = dsl::dsl_by_name(GetParam());
  for (const auto& b : make_buckets(d)) {
    EnumeratorOptions o = bucket_bounds(GetParam());
    o.bucket = b.ops;
    expect_same_space(d, o, b.label);
  }
}

TEST_P(EnumeratorOracle, WholeDslMatchesZ3) {
  const dsl::Dsl d = dsl::dsl_by_name(GetParam());
  expect_same_space(d, bounds(3, 4, 2), "whole DSL");
}

TEST_P(EnumeratorOracle, UncheckedUnitsMatchZ3) {
  const dsl::Dsl d = dsl::dsl_by_name(GetParam());
  EnumeratorOptions o = bounds(3, 4, 1);
  o.unit_check = false;
  expect_same_space(d, o, "unit_check=false");
}

// Depth 4, the refinement loop's default depth, which the per-DSL bounds
// above stay below: subtree pools that mix depths, and (cubic) three-hole
// unit sets through the cube and cube-root exponent rules. Z3 needs about a
// minute per two thousand models at depth 4, so these spaces are small ones
// (200-400 models each); depth-4 +/- chains hold thousands and stay out.
void expect_same_depth4_space(const char* name, std::vector<dsl::Op> ops, int nodes, int holes) {
  EnumeratorOptions o = bounds(4, nodes, holes);
  o.bucket = std::move(ops);
  expect_same_space(dsl::dsl_by_name(name), o, bucket_label(*o.bucket) + " at depth 4");
}

TEST(EnumeratorOracleDepth4, RenoMulDivMatchesZ3) {
  expect_same_depth4_space("reno", {dsl::Op::kMul, dsl::Op::kDiv}, 7, 0);
}

TEST(EnumeratorOracleDepth4, CubicThreeHoleBucketsMatchZ3) {
  expect_same_depth4_space("cubic", {dsl::Op::kMul, dsl::Op::kCbrt}, 6, 3);
  expect_same_depth4_space("cubic", {dsl::Op::kMul, dsl::Op::kCube}, 6, 3);
  expect_same_depth4_space("cubic", {dsl::Op::kAdd, dsl::Op::kMul, dsl::Op::kCbrt}, 6, 3);
}

INSTANTIATE_TEST_SUITE_P(Curated, EnumeratorOracle,
                         ::testing::ValuesIn(dsl::curated_dsl_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace abg::synth
