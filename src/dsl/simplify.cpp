#include "dsl/simplify.hpp"

namespace abg::dsl {

namespace {

bool is_leaf_constant(const Expr& e) {
  return e.kind == Expr::Kind::kConst || e.kind == Expr::Kind::kHole;
}

// True if the subtree contains no signal leaf at all — it folds to a single
// constant.
bool constant_only(const Expr& e) {
  if (e.kind == Expr::Kind::kSignal) return false;
  for (const auto& c : e.children) {
    if (!constant_only(*c)) return false;
  }
  return true;
}

// Flatten a +/- chain into its leaf terms (ignoring signs). If any two
// terms of the same chain are structurally equal, the chain is reducible:
// x + x folds to 2x and x ... - x cancels — including across nesting, e.g.
// (a + b) - (a - c).
void collect_chain_terms(const Expr& e, std::vector<const Expr*>& terms) {
  if (e.kind == Expr::Kind::kOp && (e.op == Op::kAdd || e.op == Op::kSub)) {
    collect_chain_terms(*e.children[0], terms);
    collect_chain_terms(*e.children[1], terms);
  } else {
    terms.push_back(&e);
  }
}

bool chain_has_duplicate_terms(const Expr& e) {
  if (e.kind != Expr::Kind::kOp || (e.op != Op::kAdd && e.op != Op::kSub)) return false;
  std::vector<const Expr*> terms;
  collect_chain_terms(e, terms);
  std::size_t constant_terms = 0;
  for (const Expr* t : terms) {
    if (constant_only(*t)) ++constant_terms;
  }
  if (constant_terms >= 2) return true;  // c1 ... c2 folds into one constant
  for (std::size_t i = 0; i < terms.size(); ++i) {
    for (std::size_t j = i + 1; j < terms.size(); ++j) {
      if (equal(*terms[i], *terms[j])) return true;
    }
  }
  return false;
}

}  // namespace

bool is_simplifiable(const Expr& e) {
  if (e.kind != Expr::Kind::kOp) return false;
  for (const auto& c : e.children) {
    if (is_simplifiable(*c)) return true;
  }
  // Any operator over constants only folds away.
  if (constant_only(e)) return true;

  const Expr& a = *e.children[0];
  const Expr* b = e.children.size() > 1 ? e.children[1].get() : nullptr;

  switch (e.op) {
    case Op::kAdd:
      if (chain_has_duplicate_terms(e)) return true;  // x + x, (a+b)-(a-c), ...
      if (b->kind == Expr::Kind::kOp && b->op == Op::kAdd) return true;  // right-leaning chain
      break;
    case Op::kSub:
      if (chain_has_duplicate_terms(e)) return true;  // x - x and chain cancellations
      break;
    case Op::kMul:
      if (b->kind == Expr::Kind::kOp && b->op == Op::kMul) return true;  // right-leaning chain
      // c1 * (c2 * x) etc. — constant can be folded through the product.
      if (is_leaf_constant(a) && b->kind == Expr::Kind::kOp && b->op == Op::kMul) return true;
      break;
    case Op::kDiv:
      if (equal(a, *b)) return true;  // x / x = 1
      if (a.kind == Expr::Kind::kOp && a.op == Op::kDiv) return true;   // (a/b)/c
      if (b->kind == Expr::Kind::kOp && b->op == Op::kDiv) return true;  // a/(b/c)
      if (is_leaf_constant(*b) && a.kind != Expr::Kind::kOp) {
        // x / c == (1/c) * x; keep the multiplicative form only.
        return true;
      }
      break;
    case Op::kCond:
      if (equal(*e.children[1], *e.children[2])) return true;  // same branches
      break;
    case Op::kCube:
      if (a.kind == Expr::Kind::kOp && a.op == Op::kCbrt) return true;  // (x^(1/3))^3
      break;
    case Op::kCbrt:
      if (a.kind == Expr::Kind::kOp && a.op == Op::kCube) return true;  // (x^3)^(1/3)
      break;
    case Op::kLt:
    case Op::kGt:
    case Op::kModEq:
      if (equal(a, *b)) return true;  // trivially constant condition
      break;
  }
  return false;
}

int compare(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return static_cast<int>(a.kind) < static_cast<int>(b.kind) ? -1 : 1;
  switch (a.kind) {
    case Expr::Kind::kSignal:
      if (a.signal != b.signal) return a.signal < b.signal ? -1 : 1;
      return 0;
    case Expr::Kind::kConst:
      if (a.value != b.value) return a.value < b.value ? -1 : 1;
      return 0;
    case Expr::Kind::kHole:
      if (a.hole_id != b.hole_id) return a.hole_id < b.hole_id ? -1 : 1;
      return 0;
    case Expr::Kind::kOp: {
      if (a.op != b.op) return a.op < b.op ? -1 : 1;
      if (a.children.size() != b.children.size()) {
        return a.children.size() < b.children.size() ? -1 : 1;
      }
      for (std::size_t i = 0; i < a.children.size(); ++i) {
        const int c = compare(*a.children[i], *b.children[i]);
        if (c != 0) return c;
      }
      return 0;
    }
  }
  return 0;
}

ExprPtr canonicalize(const ExprPtr& e) {
  if (e->kind != Expr::Kind::kOp) return e;
  std::vector<ExprPtr> kids;
  kids.reserve(e->children.size());
  for (const auto& c : e->children) kids.push_back(canonicalize(c));
  if ((e->op == Op::kAdd || e->op == Op::kMul) && compare(*kids[0], *kids[1]) > 0) {
    std::swap(kids[0], kids[1]);
  }
  return node(e->op, std::move(kids));
}

}  // namespace abg::dsl
