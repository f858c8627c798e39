// Multi-event replay and loss-handler synthesis — the generalization the
// paper's model section sketches (§3: "a comprehensive model of CCAs would
// determine handlers to update each state variable upon the occurrence of
// each event ... we believe Abagnale's technique generalizes"). Here we add
// the second most important event: the loss determination. A full-trace
// replay drives BOTH a cwnd-on-ack handler and a cwnd-on-loss handler
// through every recorded event, so a loss handler can be synthesized against
// whole traces (not just between-loss segments).
#pragma once

#include <vector>

#include "distance/distance.hpp"
#include "dsl/dsl.hpp"
#include "dsl/expr.hpp"
#include "synth/replay.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace abg::synth {

// Replay a (ack_handler, loss_handler) pair over an entire trace: loss
// samples apply the loss handler, new-data ACKs apply the ack handler,
// duplicate ACKs hold. Returns the synthesized CWND series in packets.
std::vector<double> replay_trace(const dsl::Expr& ack_handler, const dsl::Expr& loss_handler,
                                 const trace::Trace& t, const ReplayOptions& opts = {});

// Distance between a handler pair's full-trace replay and the observation.
double trace_distance(const dsl::Expr& ack_handler, const dsl::Expr& loss_handler,
                      const trace::Trace& t, distance::Metric metric,
                      const distance::DistanceOptions& dopts = {});

struct LossSynthesisOptions {
  distance::Metric metric = distance::Metric::kDtw;
  distance::DistanceOptions dopts;
  int max_depth = 3;
  int max_nodes = 5;
  int max_holes = 2;
  std::size_t max_sketches = 400;
  std::size_t concretize_budget = 32;
  bool unit_check = true;
  std::uint64_t seed = 11;
};

struct LossSynthesisResult {
  dsl::ExprPtr handler;  // best cwnd-on-loss handler
  double distance = 0.0;
  std::size_t sketches_tried = 0;
  std::size_t handlers_tried = 0;
  // kResourceExhausted when the enumerator ran out of memory; ok otherwise.
  util::Status status;

  bool found() const { return handler != nullptr; }
};

// Given an already-synthesized ack handler, search the DSL for the loss
// handler minimizing full-trace distance. The loss-handler space is small
// (one multiplicative/BDP-style expression), so a capped exhaustive sweep
// suffices — no bucketization needed.
LossSynthesisResult synthesize_loss_handler(const dsl::Dsl& dsl, const dsl::Expr& ack_handler,
                                            const std::vector<trace::Trace>& traces,
                                            const LossSynthesisOptions& opts = {});

}  // namespace abg::synth
