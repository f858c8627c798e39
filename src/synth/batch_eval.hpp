// Segment replay (§3.1) for up to dsl::kBatchLanes hole-assignments of one
// compiled sketch in lockstep. Each lane carries only its own evolving CWND;
// the observed signals broadcast. This is the program's one per-segment
// replay loop: score_sketch runs it with full batches, and replay() /
// total_distance run it with one lane, so the search and final validation
// cannot disagree. The tests' tree-walking replay oracle pins every lane's
// series bit for bit.
#pragma once

#include <vector>

#include "dsl/bytecode.hpp"
#include "synth/replay.hpp"
#include "trace/trace.hpp"

namespace abg::synth {

// Replay `prog` (compiled from a sketch) over `segment` once per assignment.
// `assigns` holds one hole-binding vector per lane (at most dsl::kBatchLanes;
// bindings follow fill_holes's clamp rules: an empty vector binds every hole
// to 1.0, a short one repeats its last element). out->at(L) receives lane
// L's synthesized CWND series in packets, as replay() documents it.
void replay_batch(const dsl::Program& prog,
                  const std::vector<const std::vector<double>*>& assigns,
                  const trace::Segment& segment, const ReplayOptions& opts,
                  std::vector<std::vector<double>>* out);

}  // namespace abg::synth
