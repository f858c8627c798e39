// Candidate-handler replay (§3.1): execute a handler expression over the
// events recorded in a trace segment — feeding it the observed signals but
// its *own* evolving CWND — to produce the "synthesized trace", then measure
// its distance to the observed CWND series. This is the stateful simulation
// step that generic PBE synthesizers cannot model (§2.2).
//
// replay(), segment_distance() and total_distance() compile their handler
// (dsl::compile) and run it through replay_batch (synth/batch_eval.hpp), the
// one per-segment replay loop, so final validation scores a handler with the
// same interpreter and the same window rules as the search.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "distance/distance.hpp"
#include "dsl/expr.hpp"
#include "trace/trace.hpp"

namespace abg::synth {

// next_cwnd's cold path: counts one held window in "synth.nonfinite_cwnd"
// (the metric's only registration) and warns, rate-limited.
void note_nonfinite_cwnd();

// The window update after every handler evaluation — replay_batch,
// replay_trace and core::HandlerCca all apply it. A non-finite output holds
// the previous window `cwnd` and is counted: a candidate that divides by
// zero or overflows must degrade, not propagate NaN into the distance layer.
// A finite output is clamped to [lo, hi].
inline double next_cwnd(double cwnd, double next, double lo, double hi) {
  if (std::isfinite(next)) return std::clamp(next, lo, hi);
  note_nonfinite_cwnd();
  return cwnd;
}

struct ReplayOptions {
  // Window clamp applied after every handler evaluation; non-finite outputs
  // hold the previous window instead.
  double min_cwnd_pkts = 1.0;
  double max_cwnd_pkts = 1e7;
};

// A replay's starting state, read off its first sample.
struct ReplayStart {
  double cwnd;  // observed window; one MSS if non-finite, since a corrupted
                // start would poison every step of the rollout
  double mss;   // observed MSS, 1 if non-positive; series are in packets of it
  double lo;    // clamp bounds in bytes: opts.{min,max}_cwnd_pkts * mss
  double hi;
};
ReplayStart replay_start(const trace::AckSample& first, const ReplayOptions& opts);

// Replay `handler` over the segment, returning the synthesized CWND series
// in packets (one point per ACK sample; duplicate-ACK samples hold the
// window, mirroring the recorded sender). A residual hole reads 1.0.
std::vector<double> replay(const dsl::Expr& handler, const trace::Segment& segment,
                           const ReplayOptions& opts = {});

// The observed CWND series of a segment, in packets (same sampling as
// replay(), so the two series align index-by-index before warping).
std::vector<double> observed_series_pkts(const trace::Segment& segment);
// The same over any run of samples (a whole trace, for replay_trace).
std::vector<double> observed_series_pkts(std::span<const trace::AckSample> samples);

// Distance between the handler's synthesized trace and the observed one.
double segment_distance(const dsl::Expr& handler, const trace::Segment& segment,
                        distance::Metric metric,
                        const distance::DistanceOptions& dopts = {},
                        const ReplayOptions& ropts = {});

// Sum of segment distances over a working set (the per-row "DTW distance"
// of Table 2), always exact; the handler is compiled once for all segments.
// The refinement loop's bounded evaluation lives in score_sketch.
double total_distance(const dsl::Expr& handler, const std::vector<trace::Segment>& segments,
                      distance::Metric metric,
                      const distance::DistanceOptions& dopts = {},
                      const ReplayOptions& ropts = {});

}  // namespace abg::synth
