// Tests for the extensions beyond the core pipeline: the Mister880
// decision-problem baseline (§2.2), multi-event replay with loss-handler
// synthesis (§3's generalization), and simulator cross traffic.
#include <gtest/gtest.h>

#include <cmath>

#include "net/simulator.hpp"
#include "reference_eval.hpp"
#include "synth/event_replay.hpp"
#include "synth/mister880.hpp"
#include "trace/noise.hpp"
#include "trace/trace_io.hpp"

namespace abg::synth {
namespace {

trace::Segment synthetic_reno_segment(std::size_t n) {
  // Exact replayable ground truth: cwnd' = cwnd + mss per ACK.
  trace::Segment seg;
  double cwnd = 10 * 1448.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace::AckSample s;
    s.sig.now = 0.05 * static_cast<double>(i);
    s.sig.mss = 1448.0;
    s.sig.cwnd = cwnd;
    s.sig.acked_bytes = 1448.0;
    s.sig.rtt = 0.05;
    s.sig.min_rtt = 0.05;
    s.sig.max_rtt = 0.06;
    s.sig.ack_rate = 2e5;
    cwnd += 1448.0;
    s.cwnd_after = cwnd;
    seg.samples.push_back(s);
  }
  return seg;
}

dsl::Dsl tiny_dsl() {
  dsl::Dsl d = dsl::reno_dsl();
  d.signals = {dsl::Signal::kCwnd, dsl::Signal::kMss, dsl::Signal::kRenoInc};
  d.ops = {dsl::Op::kAdd, dsl::Op::kMul};
  return d;
}

TEST(Mister880, ExactMatchAcceptsGroundTruth) {
  auto seg = synthetic_reno_segment(40);
  auto truth = dsl::add(dsl::sig(dsl::Signal::kCwnd), dsl::sig(dsl::Signal::kMss));
  EXPECT_TRUE(exact_match(*truth, seg, 0.01));
}

TEST(Mister880, ExactMatchRejectsCloseButWrong) {
  auto seg = synthetic_reno_segment(40);
  // 0.9 MSS per ACK: visually close, but not an exact match.
  auto close = dsl::add(dsl::sig(dsl::Signal::kCwnd),
                        dsl::mul(dsl::constant(0.9), dsl::sig(dsl::Signal::kMss)));
  EXPECT_FALSE(exact_match(*close, seg, 0.01));
}

TEST(Mister880, SynthesizesOnCleanTrace) {
  auto seg = synthetic_reno_segment(40);
  Mister880Options opts;
  opts.max_depth = 3;
  opts.max_nodes = 5;
  opts.max_holes = 2;
  auto result = mister880_synthesize(tiny_dsl(), {seg}, opts);
  ASSERT_TRUE(result.found());
  EXPECT_TRUE(exact_match(*result.handler, seg, opts.match_tolerance));
}

TEST(Mister880, FailsOnNoisyTrace) {
  // The paper's key contrast (§2.2): with measurement noise the decision
  // formulation rejects every candidate — even the ground truth.
  auto seg = synthetic_reno_segment(60);
  util::Rng rng(3);
  for (auto& s : seg.samples) {
    s.cwnd_after *= 1.0 + rng.uniform(-0.05, 0.05);
  }
  Mister880Options opts;
  opts.max_depth = 3;
  opts.max_nodes = 5;
  opts.max_holes = 2;
  auto result = mister880_synthesize(tiny_dsl(), {seg}, opts);
  EXPECT_FALSE(result.found());
  EXPECT_GT(result.handlers_tried, 0u);
}

TEST(Mister880, RespectsSketchCap) {
  auto seg = synthetic_reno_segment(20);
  // Alternate large jumps: no deterministic expression can match exactly.
  for (std::size_t i = 0; i < seg.samples.size(); ++i) {
    if (i % 2 == 1) seg.samples[i].cwnd_after *= 1.7;
  }
  Mister880Options opts;
  opts.max_sketches = 5;
  opts.max_depth = 3;
  opts.max_nodes = 5;
  auto result = mister880_synthesize(tiny_dsl(), {seg}, opts);
  EXPECT_FALSE(result.found());
  EXPECT_LE(result.sketches_tried, 5u);
}

trace::Trace reno_like_trace() {
  // cwnd += mss per ACK; halve at loss samples.
  trace::Trace t;
  double cwnd = 20 * 1448.0;
  for (std::size_t i = 0; i < 300; ++i) {
    trace::AckSample s;
    s.sig.now = 0.05 * static_cast<double>(i);
    s.sig.mss = 1448.0;
    s.sig.cwnd = cwnd;
    s.sig.acked_bytes = 1448.0;
    s.sig.rtt = 0.05;
    s.sig.min_rtt = 0.05;
    s.sig.max_rtt = 0.06;
    s.sig.ack_rate = 2e5;
    if (i % 100 == 99) {
      s.loss_event = true;
      s.sig.acked_bytes = 0.0;
      cwnd *= 0.5;
    } else {
      cwnd += 1448.0;
    }
    s.cwnd_after = cwnd;
    t.samples.push_back(s);
  }
  return t;
}

TEST(EventReplay, AppliesLossHandlerAtLossSamples) {
  auto t = reno_like_trace();
  auto ack = dsl::add(dsl::sig(dsl::Signal::kCwnd), dsl::sig(dsl::Signal::kMss));
  auto loss = dsl::mul(dsl::constant(0.5), dsl::sig(dsl::Signal::kCwnd));
  const auto series = replay_trace(*ack, *loss, t);
  ASSERT_EQ(series.size(), t.samples.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_NEAR(series[i], t.samples[i].cwnd_after / 1448.0, 1e-9) << i;
  }
  EXPECT_NEAR(trace_distance(*ack, *loss, t, distance::Metric::kDtw), 0.0, 1e-9);
}

TEST(EventReplay, WrongLossHandlerScoresWorse) {
  auto t = reno_like_trace();
  auto ack = dsl::add(dsl::sig(dsl::Signal::kCwnd), dsl::sig(dsl::Signal::kMss));
  auto halve = dsl::mul(dsl::constant(0.5), dsl::sig(dsl::Signal::kCwnd));
  auto hold = dsl::sig(dsl::Signal::kCwnd);  // ignores the loss
  EXPECT_LT(trace_distance(*ack, *halve, t, distance::Metric::kDtw),
            trace_distance(*ack, *hold, t, distance::Metric::kDtw));
}

TEST(EventReplay, SynthesizesTheHalvingLossHandler) {
  auto t = reno_like_trace();
  auto ack = dsl::add(dsl::sig(dsl::Signal::kCwnd), dsl::sig(dsl::Signal::kMss));
  dsl::Dsl d = tiny_dsl();
  LossSynthesisOptions opts;
  opts.max_sketches = 100;
  auto result = synthesize_loss_handler(d, *ack, {t}, opts);
  ASSERT_TRUE(result.found());
  // The recovered handler must behave like *0.5 at a loss point.
  cca::Signals sig = t.samples[99].sig;
  const double out = dsl::run_one(*result.handler, sig);
  EXPECT_NEAR(out, 0.5 * sig.cwnd, 0.1 * sig.cwnd)
      << dsl::to_string(*result.handler);
}

TEST(EventReplay, NonFiniteStartWindowFallsBackToOneMss) {
  // A corrupted first window must not poison the rollout: like segment
  // replay, full-trace replay starts from one MSS instead, so the series
  // and the distance stay finite and the loss-handler search can compare
  // candidates.
  auto t = reno_like_trace();
  t.samples.front().sig.cwnd = std::nan("");
  auto ack = dsl::add(dsl::sig(dsl::Signal::kCwnd), dsl::sig(dsl::Signal::kMss));
  auto loss = dsl::mul(dsl::constant(0.5), dsl::sig(dsl::Signal::kCwnd));
  const auto series = replay_trace(*ack, *loss, t);
  ASSERT_EQ(series.size(), t.samples.size());
  EXPECT_DOUBLE_EQ(series.front(), 2.0);  // one MSS, then one ACK's increment
  for (double v : series) EXPECT_TRUE(std::isfinite(v));
  EXPECT_TRUE(std::isfinite(trace_distance(*ack, *loss, t, distance::Metric::kDtw)));
}

TEST(EventReplay, EmptyTraceYieldsEmptySeries) {
  trace::Trace t;
  auto ack = dsl::sig(dsl::Signal::kCwnd);
  EXPECT_TRUE(replay_trace(*ack, *ack, t).empty());
}

}  // namespace
}  // namespace abg::synth

namespace abg::net {
namespace {

TEST(CrossTraffic, ReducesFlowThroughput) {
  trace::Environment clean;
  clean.bandwidth_bps = 10e6;
  clean.rtt_s = 0.04;
  clean.duration_s = 20.0;  // long enough that warm-up noise washes out
  clean.seed = 31;
  trace::Environment busy = clean;
  busy.cross_traffic_bps = 5e6;  // half the link taken by cross traffic

  auto a = run_connection("reno", clean);
  auto b = run_connection("reno", busy);
  const double delivered_clean = a.samples.back().ack_seq;
  const double delivered_busy = b.samples.back().ack_seq;
  EXPECT_LT(delivered_busy, 0.85 * delivered_clean);
  EXPECT_GT(delivered_busy, 0.2 * delivered_clean);  // still makes progress
}

TEST(CrossTraffic, CausesExtraLossEvents) {
  trace::Environment env;
  env.bandwidth_bps = 10e6;
  env.rtt_s = 0.04;
  env.duration_s = 8.0;
  env.seed = 31;
  auto clean = run_connection("vegas", env);
  env.cross_traffic_bps = 6e6;
  auto busy = run_connection("vegas", env);
  auto losses = [](const trace::Trace& t) {
    int n = 0;
    for (const auto& s : t.samples) n += s.loss_event;
    return n;
  };
  EXPECT_GE(losses(busy), losses(clean));
}

TEST(CrossTraffic, RoundTripsThroughCsv) {
  trace::Environment env;
  env.cross_traffic_bps = 3e6;
  trace::Trace t;
  t.cca_name = "reno";
  t.env = env;
  trace::AckSample s;
  s.sig.now = 1.0;
  t.samples.push_back(s);
  auto parsed = trace::from_csv(trace::to_csv(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->env.cross_traffic_bps, 3e6);
}

}  // namespace
}  // namespace abg::net
