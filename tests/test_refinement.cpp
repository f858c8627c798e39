// End-to-end synthesis tests. These run the full refinement loop on real
// simulator traces with deliberately small search bounds so the suite stays
// fast; the full-size runs live in bench/.
#include <gtest/gtest.h>

#include "dsl/known_handlers.hpp"
#include "net/simulator.hpp"
#include "obs/registry.hpp"
#include "synth/refinement.hpp"
#include "synth/replay.hpp"
#include "synth/shard.hpp"

namespace abg::synth {
namespace {

std::vector<trace::Segment> reno_segments() {
  static const auto segments = [] {
    trace::Environment env;
    env.bandwidth_bps = 10e6;
    env.rtt_s = 0.04;
    env.duration_s = 10.0;
    env.seed = 21;
    auto t = net::run_connection("reno", env);
    return trace::segment_all({trace::trim_warmup(t, 2.0)}, 20);
  }();
  return segments;
}

SynthesisOptions quick_opts() {
  SynthesisOptions o;
  o.initial_samples = 6;
  o.initial_keep = 3;
  o.initial_segments = 2;
  o.concretize_budget = 12;
  o.max_iterations = 3;
  o.exhaustive_cap = 60;
  o.max_depth = 3;
  o.max_nodes = 5;
  o.max_holes = 2;
  o.threads = 2;
  o.seed = 5;
  return o;
}

TEST(ScoreSketch, FindsBestConstantForRenoSketch) {
  auto segs = reno_segments();
  ASSERT_GE(segs.size(), 2u);
  // Sketch: cwnd + c * reno-inc; the pool contains good and bad constants.
  auto sketch = dsl::add(dsl::sig(dsl::Signal::kCwnd),
                         dsl::mul(dsl::hole(0), dsl::sig(dsl::Signal::kRenoInc)));
  SynthesisOptions opts = quick_opts();
  util::Rng rng(3);
  std::size_t scored = 0;
  auto best = score_sketch(sketch, {segs[0], segs[1]}, {0.001, 1.0, 100.0}, opts, rng, &scored);
  ASSERT_TRUE(best.valid());
  EXPECT_EQ(scored, 3u);
  // The winning constant must be the sane one.
  EXPECT_NE(dsl::to_string(*best.handler).find("1 "), std::string::npos);
}

TEST(ScoreSketch, HoleFreeSketchScoresOnce) {
  auto segs = reno_segments();
  auto handler = dsl::add(dsl::sig(dsl::Signal::kCwnd), dsl::sig(dsl::Signal::kRenoInc));
  SynthesisOptions opts = quick_opts();
  util::Rng rng(3);
  std::size_t scored = 0;
  auto best = score_sketch(handler, {segs[0]}, dsl::default_constant_pool(), opts, rng, &scored);
  EXPECT_EQ(scored, 1u);
  EXPECT_TRUE(best.valid());
}

TEST(Synthesize, RecoversRenoFamilyHandler) {
  auto segs = reno_segments();
  ASSERT_GE(segs.size(), 3u);
  auto result = synthesize(dsl::reno_dsl(), segs, quick_opts());
  ASSERT_TRUE(result.best.valid());
  // The recovered handler must track the trace at least as well as the
  // domain expert's fine-tuned expression on the final working set.
  const auto& fine_tuned = *dsl::known_handlers("reno").fine_tuned;
  const double ft = total_distance(fine_tuned, segs, distance::Metric::kDtw);
  const double got = total_distance(*result.best.handler, segs, distance::Metric::kDtw);
  EXPECT_LT(got, 3.0 * ft) << dsl::to_string(*result.best.handler);
  // Structure check: it must grow from cwnd (the Reno-variant shape).
  const auto sigs = dsl::signals_used(*result.best.handler);
  EXPECT_TRUE(std::find(sigs.begin(), sigs.end(), dsl::Signal::kCwnd) != sigs.end() ||
              std::find(sigs.begin(), sigs.end(), dsl::Signal::kRenoInc) != sigs.end());
}

TEST(Synthesize, ReportsIterations) {
  auto segs = reno_segments();
  auto result = synthesize(dsl::reno_dsl(), segs, quick_opts());
  ASSERT_FALSE(result.iterations.empty());
  const auto& it0 = result.iterations.front();
  EXPECT_EQ(it0.n_target, 6);
  EXPECT_EQ(it0.keep, 3);
  EXPECT_EQ(it0.segments_used, 2u);
  EXPECT_EQ(it0.buckets.size(), result.initial_buckets);
  // Scores ascend.
  for (std::size_t i = 1; i < it0.buckets.size(); ++i) {
    EXPECT_LE(it0.buckets[i - 1].score, it0.buckets[i].score);
  }
  // Retained set is a prefix-by-score superset of k (ties allowed).
  std::size_t retained = 0;
  for (const auto& b : it0.buckets) retained += b.retained;
  EXPECT_GE(retained, 1u);
}

TEST(Synthesize, IterationGrowsNAndShrinksK) {
  auto segs = reno_segments();
  auto result = synthesize(dsl::reno_dsl(), segs, quick_opts());
  if (result.iterations.size() >= 2) {
    EXPECT_EQ(result.iterations[1].n_target, 6 * 8);
    EXPECT_LE(result.iterations[1].keep, 3);
    EXPECT_GE(result.iterations[1].segments_used, result.iterations[0].segments_used);
    EXPECT_LE(result.iterations[1].buckets.size(), result.iterations[0].buckets.size());
  }
}

TEST(Synthesize, BucketRankLocatesTargetBucket) {
  auto segs = reno_segments();
  auto result = synthesize(dsl::reno_dsl(), segs, quick_opts());
  const auto target = bucket_of(*dsl::to_sketch(dsl::known_handlers("reno").fine_tuned));
  auto rank = result.bucket_rank(target.label, 0);
  ASSERT_TRUE(rank.has_value());
  EXPECT_GE(rank->first, 1u);
  EXPECT_LE(rank->first, rank->second);
  EXPECT_FALSE(result.bucket_rank("{nonexistent}", 0).has_value());
  EXPECT_FALSE(result.bucket_rank(target.label, 99).has_value());
}

TEST(Synthesize, TimeoutReturnsBestSoFar) {
  auto segs = reno_segments();
  SynthesisOptions opts = quick_opts();
  opts.timeout_s = 0.0;  // expire immediately after the first iteration
  auto result = synthesize(dsl::reno_dsl(), segs, opts);
  EXPECT_TRUE(result.timed_out);
  EXPECT_TRUE(result.best.valid());  // still returns the best found (§4.4)
}

TEST(Synthesize, DeterministicForSameSeed) {
  auto segs = reno_segments();
  SynthesisOptions opts = quick_opts();
  opts.threads = 3;  // determinism must hold regardless of scheduling
  auto a = synthesize(dsl::reno_dsl(), segs, opts);
  auto b = synthesize(dsl::reno_dsl(), segs, opts);
  ASSERT_TRUE(a.best.valid() && b.best.valid());
  EXPECT_EQ(dsl::to_string(*a.best.handler), dsl::to_string(*b.best.handler));
  EXPECT_DOUBLE_EQ(a.best.distance, b.best.distance);
}

TEST(Synthesize, CountsWorkDone) {
  auto segs = reno_segments();
  auto result = synthesize(dsl::reno_dsl(), segs, quick_opts());
  EXPECT_GT(result.total_sketches, 0u);
  EXPECT_GT(result.total_handlers_scored, result.total_sketches / 2);
  EXPECT_GT(result.seconds, 0.0);
}

// Bucket passes and final validation do the same DTW work however the pool
// schedules them: one run's distance-counter deltas are equal at 1 and 4
// threads.
TEST(Refinement, WorkCountersIndependentOfThreadCount) {
  auto segs = reno_segments();
  const char* const names[] = {"distance.dtw_evals", "distance.dtw_cells",
                               "synth.distance_abandons"};
  auto work = [&](std::size_t threads) {
    SynthesisOptions opts = quick_opts();
    opts.threads = threads;
    std::vector<std::uint64_t> delta;
    for (const char* n : names) delta.push_back(obs::counter(n).value());
    const auto result = synthesize(dsl::reno_dsl(), segs, opts);
    EXPECT_TRUE(result.best.valid());
    EXPECT_GT(result.candidates_validated, 1u);
    for (std::size_t i = 0; i < delta.size(); ++i) {
      delta[i] = obs::counter(names[i]).value() - delta[i];
    }
    return delta;
  };
  const auto one = work(1);
  const auto four = work(4);
  for (std::size_t i = 0; i < one.size(); ++i) EXPECT_EQ(one[i], four[i]) << names[i];
  EXPECT_GT(one[0], 0u);
  EXPECT_GT(one[2], 0u);
}

// A pass that runs a bucket dry frees its enumerator on the spot; the bucket
// keeps its sketches and best and never enumerates again.
TEST(Refinement, ExhaustedBucketReleasesItsEnumerator) {
  const auto segs = reno_segments();
  ASSERT_GE(segs.size(), 2u);
  const auto d = dsl::reno_dsl();
  const SynthesisOptions opts = quick_opts();
  BucketSearchState st;
  st.bucket = make_buckets(d).front();
  ASSERT_TRUE(st.bucket.ops.empty()) << st.bucket.label;  // leaf-only: a tiny bucket
  st.rng = util::Rng(bucket_rng_seed(st.bucket.label, opts.seed));
  const auto best = run_bucket_pass(d, opts, st, 1000, {segs[0], segs[1]}, nullptr,
                                    [] { return false; });
  EXPECT_TRUE(st.exhausted);
  EXPECT_EQ(st.enumerator, nullptr);
  EXPECT_FALSE(st.sketches.empty());
  EXPECT_LT(st.sketches.size(), 1000u);
  EXPECT_TRUE(best.valid());
}

}  // namespace
}  // namespace abg::synth
