// The test oracle for synth::score_sketch: a plain scalar candidate loop.
// Every concretized handler is tree-walk replayed (synth::replay, through
// total_distance) and scored exactly, with no abandon bound; the best is the
// first strict minimum in assignment order. Nothing in src/ calls it — tests
// check the production loop (batched bytecode replay under the bucket-best
// abandon bound) against it, as the scalar DTW is the oracle for the SIMD
// kernels.
#pragma once

#include <cstddef>
#include <vector>

#include "synth/concretize.hpp"
#include "synth/refinement.hpp"
#include "synth/replay.hpp"
#include "synth/shard.hpp"

namespace abg::synth {

inline ScoredHandler reference_score_sketch(const dsl::ExprPtr& sketch,
                                            const std::vector<trace::Segment>& segments,
                                            const std::vector<double>& constant_pool,
                                            const SynthesisOptions& opts, util::Rng& rng,
                                            std::size_t* handlers_scored = nullptr) {
  ScoredHandler best;
  best.sketch = sketch;
  ConcretizeOptions copts;
  copts.budget = opts.concretize_budget;
  const distance::DistanceOptions dopts = effective_distance_options(opts);
  for (const auto& assign : enumerate_assignments(*sketch, constant_pool, copts, rng)) {
    const auto handler = dsl::fill_holes(sketch, assign);
    const double d = total_distance(*handler, segments, opts.metric, dopts);
    if (handlers_scored) ++*handlers_scored;
    if (d < best.distance) {
      best.distance = d;
      best.handler = handler;
    }
  }
  return best;
}

}  // namespace abg::synth
