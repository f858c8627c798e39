#include <gtest/gtest.h>

#include <cmath>

#include "dsl/expr.hpp"
#include "reference_eval.hpp"
#include "synth/replay.hpp"
#include "trace/trace.hpp"

// The DSL's operator and signal semantics, checked on the production
// interpreter: every expression here is compiled and run on one lane
// (run_one), as replay and HandlerCca run handlers.
namespace abg::dsl {
namespace {

cca::Signals make_signals() {
  cca::Signals s;
  s.now = 12.0;
  s.mss = 1448.0;
  s.cwnd = 14480.0;        // 10 packets
  s.acked_bytes = 1448.0;  // one packet
  s.rtt = 0.08;
  s.srtt = 0.08;
  s.min_rtt = 0.05;
  s.max_rtt = 0.10;
  s.ack_rate = 181000.0;  // 125 pkts/s
  s.rtt_gradient = 0.01;
  s.time_since_loss = 2.0;
  s.cwnd_at_loss = 28960.0;
  return s;
}

TEST(Eval, SignalLeavesReadSnapshot) {
  const auto s = make_signals();
  EXPECT_DOUBLE_EQ(run_one(*sig(Signal::kCwnd), s), 14480.0);
  EXPECT_DOUBLE_EQ(run_one(*sig(Signal::kMss), s), 1448.0);
  EXPECT_DOUBLE_EQ(run_one(*sig(Signal::kRtt), s), 0.08);
  EXPECT_DOUBLE_EQ(run_one(*sig(Signal::kWMax), s), 28960.0);
  EXPECT_DOUBLE_EQ(run_one(*sig(Signal::kTimeSinceLoss), s), 2.0);
}

TEST(Eval, RenoIncMacro) {
  const auto s = make_signals();
  EXPECT_NEAR(run_one(*sig(Signal::kRenoInc), s), 1448.0 * 1448.0 / 14480.0, 1e-9);
}

TEST(Eval, VegasDiffMacro) {
  const auto s = make_signals();
  // (rtt - min_rtt) * ack_rate / mss = 0.03 * 181000 / 1448 = 3.75 packets.
  EXPECT_NEAR(run_one(*sig(Signal::kVegasDiff), s), 3.75, 1e-9);
}

TEST(Eval, HtcpDiffMacro) {
  const auto s = make_signals();
  EXPECT_NEAR(run_one(*sig(Signal::kHtcpDiff), s), 0.03 / 0.10, 1e-12);
}

TEST(Eval, RttsSinceLossMacro) {
  const auto s = make_signals();
  EXPECT_NEAR(run_one(*sig(Signal::kRttsSinceLoss), s), 2.0 / 0.08, 1e-9);
}

TEST(Eval, MacrosAreTotalOnZeroSignals) {
  cca::Signals zero;
  zero.mss = 0;
  zero.cwnd = 0;
  zero.rtt = 0;
  zero.max_rtt = 0;
  for (auto m : {Signal::kRenoInc, Signal::kVegasDiff, Signal::kHtcpDiff,
                 Signal::kRttsSinceLoss}) {
    EXPECT_TRUE(std::isfinite(run_one(*sig(m), zero)));
  }
}

TEST(Eval, Arithmetic) {
  const auto s = make_signals();
  EXPECT_DOUBLE_EQ(run_one(*add(constant(2), constant(3)), s), 5.0);
  EXPECT_DOUBLE_EQ(run_one(*sub(constant(2), constant(3)), s), -1.0);
  EXPECT_DOUBLE_EQ(run_one(*mul(constant(2), constant(3)), s), 6.0);
  EXPECT_DOUBLE_EQ(run_one(*div(constant(3), constant(2)), s), 1.5);
}

TEST(Eval, DivisionByZeroIsZero) {
  const auto s = make_signals();
  EXPECT_DOUBLE_EQ(run_one(*div(constant(3), constant(0)), s), 0.0);
}

TEST(Eval, CubeAndCbrt) {
  const auto s = make_signals();
  EXPECT_DOUBLE_EQ(run_one(*cube(constant(2)), s), 8.0);
  EXPECT_NEAR(run_one(*cbrt(constant(27)), s), 3.0, 1e-12);
  EXPECT_NEAR(run_one(*cbrt(constant(-8)), s), -2.0, 1e-12);  // negative cbrt ok
}

TEST(Eval, Comparisons) {
  const auto s = make_signals();
  EXPECT_EQ(run_one(*lt(constant(1), constant(2)), s), 1.0);
  EXPECT_EQ(run_one(*lt(constant(2), constant(1)), s), 0.0);
  EXPECT_EQ(run_one(*gt(sig(Signal::kCwnd), sig(Signal::kMss)), s), 1.0);
}

TEST(Eval, ConditionalPicksBranch) {
  const auto s = make_signals();
  auto e = cond(lt(sig(Signal::kRtt), constant(1.0)), constant(10), constant(20));
  EXPECT_DOUBLE_EQ(run_one(*e, s), 10.0);
  auto e2 = cond(gt(sig(Signal::kRtt), constant(1.0)), constant(10), constant(20));
  EXPECT_DOUBLE_EQ(run_one(*e2, s), 20.0);
}

TEST(Eval, ModEqExactMultiple) {
  const auto s = make_signals();
  EXPECT_EQ(run_one(*mod_eq(constant(16), constant(8)), s), 1.0);
  EXPECT_EQ(run_one(*mod_eq(constant(12), constant(8)), s), 0.0);
}

TEST(Eval, ModEqToleranceBand) {
  const auto s = make_signals();
  // Within 5% of a multiple counts as "= 0" over continuous signals.
  EXPECT_EQ(run_one(*mod_eq(constant(16.3), constant(8)), s), 1.0);
  EXPECT_EQ(run_one(*mod_eq(constant(15.7), constant(8)), s), 1.0);
  EXPECT_EQ(run_one(*mod_eq(constant(12.0), constant(8)), s), 0.0);
}

TEST(Eval, ModEqZeroDivisorIsFalse) {
  const auto s = make_signals();
  EXPECT_EQ(run_one(*mod_eq(sig(Signal::kCwnd), constant(0)), s), 0.0);
}

TEST(Eval, BoolAsNumberIsIndicator) {
  const auto s = make_signals();
  EXPECT_DOUBLE_EQ(run_one(*lt(constant(1), constant(2)), s), 1.0);
  EXPECT_DOUBLE_EQ(run_one(*lt(constant(2), constant(1)), s), 0.0);
}

TEST(Eval, HoleEvaluatesDefensivelyToOne) {
  // A residual hole reads 1.0: replaying cwnd + hole * mss over one new-data
  // ACK grows the 10-packet window by exactly one packet.
  trace::Segment seg;
  seg.samples.emplace_back();
  seg.samples.back().sig = make_signals();
  const auto handler = add(sig(Signal::kCwnd), mul(hole(0), sig(Signal::kMss)));
  const auto series = synth::replay(*handler, seg);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0], 11.0);
}

TEST(Eval, RenoHandlerMatchesClosedForm) {
  const auto s = make_signals();
  auto handler = add(sig(Signal::kCwnd), mul(constant(0.7), sig(Signal::kRenoInc)));
  EXPECT_NEAR(run_one(*handler, s), 14480.0 + 0.7 * 144.8, 1e-9);
}

}  // namespace
}  // namespace abg::dsl
