// Arithmetic-simplifiability rejection: the paper filters out sketches that
// sympy can reduce (§4.1) so the search never wastes distance evaluations on
// redundant shapes. We implement the equivalent as a syntactic rule set plus
// a canonicalizer for commutative operators (used to deduplicate sketches
// that differ only by operand order).
#pragma once

#include "dsl/expr.hpp"

namespace abg::dsl {

// True if the sketch is arithmetically reducible and should be rejected:
//   * any operator whose operands are all constants/holes (c1 + c2 == c3),
//   * x - x, x / x, x + x (== 2x), comparisons x < x, x > x, x % x,
//   * a conditional with structurally identical branches,
//   * cube(cbrt(x)) or cbrt(cube(x)),
//   * nested division (a/b)/c or a/(b/c) — rewritable with one division,
//   * right-leaning (a + (b + c)) / (a * (b * c)) chains — the left-leaning
//     associativity canonical form is kept instead.
bool is_simplifiable(const Expr& e);

// Order-canonical form: commutative operands (kAdd, kMul) sorted by a
// deterministic structural key. Two sketches equal up to commutativity map
// to the same canonical tree.
ExprPtr canonicalize(const ExprPtr& e);

// Total order on expressions used by canonicalize (exposed for tests).
int compare(const Expr& a, const Expr& b);

}  // namespace abg::dsl
