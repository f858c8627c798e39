// The Mister880 baseline (Ferreira et al., HotNets 2021), re-implemented as
// the paper characterizes it (§2.2, §7): program synthesis as a *decision*
// problem. A candidate handler is accepted only if its replayed trace
// matches the observation (within a strict per-point tolerance — the
// floating-point analogue of an exact SMT equality); otherwise it is
// rejected outright. The searcher exhaustively walks the sketch space in
// enumeration order, concretizes each sketch, and returns the first accepted
// handler.
//
// This gives the pipeline a head-to-head comparator: on clean traces both
// approaches can succeed; with any measurement noise the decision
// formulation discards every candidate — including the ground-truth handler
// itself — while the optimization formulation keeps working.
#pragma once

#include <cstddef>
#include <optional>

#include "dsl/dsl.hpp"
#include "synth/enumerator.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace abg::synth {

struct Mister880Options {
  // Relative per-point tolerance for "exact" match: |synth - obs| must be
  // within this fraction of the observed value at EVERY replayed ACK.
  double match_tolerance = 0.01;
  // Enumeration bounds.
  std::optional<int> max_depth;
  std::optional<int> max_nodes;
  int max_holes = 3;
  // Work caps: the decision search is exhaustive by design, so a cap keeps
  // the baseline bounded.
  std::size_t max_sketches = 2000;
  std::size_t concretize_budget = 48;
  bool unit_check = true;
  std::uint64_t seed = 7;

  // Eager validation, same contract as SynthesisOptions::validate():
  // kInvalidArgument naming the first bad field.
  util::Status validate() const;
};

struct Mister880Result {
  dsl::ExprPtr handler;  // nullptr if no candidate matched exactly
  std::size_t sketches_tried = 0;
  std::size_t handlers_tried = 0;
  // kResourceExhausted when the enumerator ran out of memory before the
  // search could finish; ok otherwise.
  util::Status status;

  bool found() const { return handler != nullptr; }
};

// True iff the handler's replayed trace matches the segment point-for-point
// within the tolerance (the decision-problem acceptance test).
bool exact_match(const dsl::Expr& handler, const trace::Segment& segment, double tolerance);

// Exhaustive decision-problem search over the DSL.
Mister880Result mister880_synthesize(const dsl::Dsl& dsl,
                                     const std::vector<trace::Segment>& segments,
                                     const Mister880Options& opts = {});

}  // namespace abg::synth
