// Candidate-handler replay (§3.1): execute a handler expression over the
// events recorded in a trace segment — feeding it the observed signals but
// its *own* evolving CWND — to produce the "synthesized trace", then measure
// its distance to the observed CWND series. This is the stateful simulation
// step that generic PBE synthesizers cannot model (§2.2).
#pragma once

#include <vector>

#include "distance/distance.hpp"
#include "dsl/expr.hpp"
#include "trace/trace.hpp"

namespace abg::synth {

struct ReplayOptions {
  // Window clamp applied after every handler evaluation; non-finite outputs
  // hold the previous window instead.
  double min_cwnd_pkts = 1.0;
  double max_cwnd_pkts = 1e7;
};

// Replay `handler` (hole-free) over the segment, returning the synthesized
// CWND series in packets (one point per new-data ACK sample; duplicate-ACK
// samples hold the window, mirroring the recorded sender).
std::vector<double> replay(const dsl::Expr& handler, const trace::Segment& segment,
                           const ReplayOptions& opts = {});

// The observed CWND series of a segment, in packets (same sampling as
// replay(), so the two series align index-by-index before warping).
std::vector<double> observed_series_pkts(const trace::Segment& segment);

// Distance between the handler's synthesized trace and the observed one.
double segment_distance(const dsl::Expr& handler, const trace::Segment& segment,
                        distance::Metric metric,
                        const distance::DistanceOptions& dopts = {},
                        const ReplayOptions& ropts = {});

// Sum of segment distances over a working set (the per-row "DTW distance"
// of Table 2), always exact. The refinement loop's bounded evaluation lives
// in score_sketch.
double total_distance(const dsl::Expr& handler, const std::vector<trace::Segment>& segments,
                      distance::Metric metric,
                      const distance::DistanceOptions& dopts = {},
                      const ReplayOptions& ropts = {});

}  // namespace abg::synth
