// Search-space bucketization (§4.4). The bucket discriminator is the exact
// subset of DSL operators a sketch uses — the metric the paper selected
// (option 2) because it is cheap to enforce while generating and sketches
// sharing an operator set behave similarly. Buckets partition the sketch
// space: every sketch uses exactly one operator subset.
#pragma once

#include <string>
#include <vector>

#include "dsl/dsl.hpp"
#include "dsl/expr.hpp"

namespace abg::synth {

struct Bucket {
  std::vector<dsl::Op> ops;  // the exact operator-usage set
  std::string label;         // e.g. "{+,*,?:,<}" or "{}" for leaf-only
};

// All *feasible* operator subsets of the DSL's operators:
//   * a subset containing a comparison (<, >, %=0) must contain ?: (bool
//     expressions only occur as a conditional's guard);
//   * a subset containing ?: must contain at least one comparison;
//   * the empty subset (leaf-only sketches) is included.
// This feasibility pruning is why bucket counts are below 2^|ops|.
std::vector<Bucket> make_buckets(const dsl::Dsl& dsl);

// The bucket a sketch belongs to: its exact operator-usage set, formatted
// with the same label scheme. (Used to locate the fine-tuned handler's
// bucket for the §6.2 accuracy accounting.)
Bucket bucket_of(const dsl::Expr& sketch);

// Label for a set of operators (sorted, stable).
std::string bucket_label(const std::vector<dsl::Op>& ops);

// True iff the two op sets are equal as sets.
bool same_ops(const std::vector<dsl::Op>& a, const std::vector<dsl::Op>& b);

}  // namespace abg::synth
