// The Z3 encoding of the sketch space (§4.1), kept as the test oracle for
// synth::SketchEnumerator. The search space is a heap-indexed operator tree of
// bounded depth; one SMT formula admits only sketches that type-check,
// unit-check with integer unit exponents (when unit checking is on), satisfy
// the cheap anti-simplification structure, respect the hole bound and use
// exactly the bucket's operator set. Each model is decoded (holes numbered in
// preorder), blocked, and run through the enumerator's post-filter:
// dsl::is_simplifiable, dsl::canonicalize and a canonical-hash dedupe.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "dsl/dsl.hpp"
#include "synth/enumerator.hpp"

namespace abg::synth {

struct Z3Space {
  // Models found: every tree the formula admits, before the post-filter.
  std::size_t models = 0;
  // Canonical hashes of the sketches that survive the post-filter, by size
  // (node count), in the order Z3 found them.
  std::map<int, std::vector<std::size_t>> sketches;
};

// Exhausts the (sub-)space that `opts` frames, size by size from the
// bucket's smallest feasible size up to the node bound.
Z3Space z3_enumerate(const dsl::Dsl& dsl, const EnumeratorOptions& opts);

}  // namespace abg::synth
