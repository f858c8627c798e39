// The one candidate-evaluation path (batched bytecode replay under the
// bucket-best abandon bound) pinned bit for bit to the results the search
// produced before the evaluation memo cache and the fast-path switches were
// removed: the winner, its distance, the work counters and every
// iteration's ranked bucket scores are constants captured from that build.
// Also: an abandoned evaluation can never displace a real best.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "net/simulator.hpp"
#include "synth/refinement.hpp"

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

// C99 hex float: equal strings mean bit-identical doubles ("inf" for +inf).
std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

struct RankedBucket {
  const char* label;
  const char* score;  // hex()
};

TEST(EvalGolden, SynthesisMatchesParentBitwise) {
  auto segs = reno_segments();
  ASSERT_GE(segs.size(), 3u);
  const auto r = synthesize(dsl::reno_dsl(), segs, quick_opts());
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  ASSERT_TRUE(r.best.valid());

  EXPECT_EQ(dsl::to_string(*r.best.handler), "reno-inc + (cwnd * 1)");
  EXPECT_EQ(hex(r.best.distance), "0x1.9a81dedbb31dap-1");
  EXPECT_EQ(r.initial_buckets, 128u);
  EXPECT_EQ(r.total_sketches, 187u);
  EXPECT_EQ(r.total_handlers_scored, 2388u);
  EXPECT_EQ(r.candidates_validated, 12u);

  // Every iteration's buckets in rank order: the finite-score head is listed,
  // every bucket ranked below it scored +inf.
  const std::vector<std::size_t> want_count{128, 4};
  const std::vector<std::vector<RankedBucket>> want_head{
      {{"{*}", "0x1.e1362fd613764p-1"},
       {"{+,*}", "0x1.e1362fd613764p-1"},
       {"{}", "0x1.e1362fd613764p-1"},
       {"{-,/}", "0x1.e1362fd613764p-1"},
       {"{-}", "0x1.e58f741f0c02fp-1"},
       {"{-,*}", "0x1.e6f530ef6225p-1"},
       {"{+,-}", "0x1.5d93add57530ep+5"},
       {"{+}", "0x1.79a8c2fdd5288p+5"},
       {"{*,/}", "0x1.43a3f3651b335p+6"},
       {"{+,/}", "0x1.4ec299c0e15eap+6"},
       {"{/}", "0x1.738265b99c71ap+6"}},
      {{"{+,*}", "0x1.821e5cfa1189ap-1"},
       {"{*}", "0x1.089bbcedad5a3p+5"},
       {"{}", "0x1.089bbcedad5a3p+5"},
       {"{-,/}", "0x1.089bbcedad5a3p+5"}}};
  ASSERT_EQ(r.iterations.size(), want_count.size());
  for (std::size_t i = 0; i < r.iterations.size(); ++i) {
    const auto& got = r.iterations[i].buckets;
    ASSERT_EQ(got.size(), want_count[i]) << "iteration " << i;
    for (std::size_t j = 0; j < got.size(); ++j) {
      if (j < want_head[i].size()) {
        EXPECT_EQ(got[j].label, want_head[i][j].label) << "iteration " << i << " rank " << j;
        EXPECT_EQ(hex(got[j].score), want_head[i][j].score) << got[j].label;
      } else {
        EXPECT_EQ(hex(got[j].score), "inf") << "iteration " << i << " " << got[j].label;
      }
    }
  }
}

// --- Early-abandon equivalence. --------------------------------------------

TEST(EarlyAbandon, AbandonedScoreIsNeverSelectedAsBest) {
  auto segs = reno_segments();
  ASSERT_GE(segs.size(), 2u);
  const std::vector<trace::Segment> working{segs[0], segs[1]};
  auto sketch = dsl::add(dsl::sig(dsl::Signal::kCwnd),
                         dsl::mul(dsl::hole(0), dsl::sig(dsl::Signal::kRenoInc)));
  const std::vector<double> pool{0.001, 0.5, 1.0, 100.0};

  const SynthesisOptions opts = quick_opts();
  util::Rng rng_a(3);
  const auto exact = score_sketch(sketch, working, pool, opts, rng_a, nullptr, nullptr);
  ASSERT_TRUE(exact.valid());

  // A bound just above the true best: the winner still computes fully (its
  // running lower bounds stay under the cutoff), every loser may abandon.
  EvalContext ctx;
  ctx.abandon_above = exact.distance * 1.0000001;
  util::Rng rng_b(3);
  const auto bounded = score_sketch(sketch, working, pool, opts, rng_b, nullptr, &ctx);
  ASSERT_TRUE(bounded.valid());
  EXPECT_EQ(dsl::to_string(*exact.handler), dsl::to_string(*bounded.handler));
  EXPECT_EQ(exact.distance, bounded.distance);

  // A bound below everything: all candidates abandon, none is promoted to
  // best, and the caller sees +inf (which a `<` comparison can never keep).
  EvalContext ctx_low;
  ctx_low.abandon_above = exact.distance * 0.5;
  util::Rng rng_c(3);
  const auto none = score_sketch(sketch, working, pool, opts, rng_c, nullptr, &ctx_low);
  EXPECT_FALSE(none.distance < ctx_low.abandon_above);
}

}  // namespace
}  // namespace abg::synth
