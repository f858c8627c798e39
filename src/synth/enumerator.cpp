#include "synth/enumerator.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "dsl/simplify.hpp"
#include "dsl/units.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "synth/buckets.hpp"
#include "util/rng.hpp"

namespace abg::synth {

bool EnumeratorBudget::charge(std::size_t bytes) {
  std::size_t used = used_.load(std::memory_order_relaxed);
  do {
    if (bytes > limit_ - std::min(used, limit_)) return false;
  } while (!used_.compare_exchange_weak(used, used + bytes, std::memory_order_relaxed));
  return true;
}

namespace {

// Interned sets of reachable (bytes, secs) unit exponents. Every hole of a
// tree is its own unit variable and sibling subtrees share none, so the set a
// subtree can take is an exact function of its children's sets; set 0 is the
// empty (unit-infeasible) set.
class UnitSets {
 public:
  using Set = std::vector<std::pair<int, int>>;  // sorted

  UnitSets() { intern({}); }

  int leaf(dsl::UnitVec u) { return intern({{u.bytes, u.secs}}); }

  int hole() {
    Set s;
    for (int b = -dsl::kHoleUnitRange; b <= dsl::kHoleUnitRange; ++b) {
      for (int t = -dsl::kHoleUnitRange; t <= dsl::kHoleUnitRange; ++t) s.emplace_back(b, t);
    }
    return intern(std::move(s));
  }

  bool contains(int set, dsl::UnitVec u) const {
    return std::binary_search(sets_[static_cast<std::size_t>(set)].begin(),
                              sets_[static_cast<std::size_t>(set)].end(),
                              std::make_pair(u.bytes, u.secs));
  }

  // The set of `op` applied to operand sets a (and b); unary operators ignore
  // b, a conditional passes its two branches.
  int combine(dsl::Op op, int a, int b) {
    const std::uint64_t key = (static_cast<std::uint64_t>(op) << 56) |
                              (static_cast<std::uint64_t>(a) << 28) |
                              static_cast<std::uint64_t>(b);
    if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
    const Set& x = sets_[static_cast<std::size_t>(a)];
    const Set& y = sets_[static_cast<std::size_t>(b)];
    Set out;
    switch (op) {
      case dsl::Op::kAdd:
      case dsl::Op::kSub:
      case dsl::Op::kCond:
      case dsl::Op::kLt:
      case dsl::Op::kGt:
      case dsl::Op::kModEq:
        std::set_intersection(x.begin(), x.end(), y.begin(), y.end(), std::back_inserter(out));
        if (dsl::op_returns_bool(op) && !out.empty()) out = {{0, 0}};
        break;
      case dsl::Op::kMul:
      case dsl::Op::kDiv: {
        const int sign = op == dsl::Op::kMul ? 1 : -1;
        for (const auto& [xb, xs] : x) {
          for (const auto& [yb, ys] : y) out.emplace_back(xb + sign * yb, xs + sign * ys);
        }
        break;
      }
      case dsl::Op::kCube:
        for (const auto& [xb, xs] : x) out.emplace_back(3 * xb, 3 * xs);
        break;
      case dsl::Op::kCbrt:  // integer-valued units only (§5.5)
        for (const auto& [xb, xs] : x) {
          if (xb % 3 == 0 && xs % 3 == 0) out.emplace_back(xb / 3, xs / 3);
        }
        break;
    }
    const int id = intern(std::move(out));
    memo_.emplace(key, id);
    return id;
  }

 private:
  int intern(Set s) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    const auto [it, fresh] = ids_.emplace(s, static_cast<int>(sets_.size()));
    if (fresh) sets_.push_back(std::move(s));
    return it->second;
  }

  std::vector<Set> sets_;
  std::map<Set, int> ids_;
  std::unordered_map<std::uint64_t, int> memo_;
};

using Kind = dsl::Expr::Kind;

// One subtree of the memo: a signal leaf, a hole, or an operator over earlier
// subtrees. A subtree's structure is unique within its enumerator, so two
// disjoint positions hold equal sketches exactly when they hold the same
// hole-free subtree (each hole gets its own id when the tree is decoded).
struct Node {
  Kind kind = Kind::kSignal;  // never kConst
  dsl::Signal signal = dsl::Signal::kMss;
  dsl::Op op = dsl::Op::kAdd;
  std::uint8_t size = 1;
  std::uint8_t depth = 1;
  std::uint8_t holes = 0;
  bool no_signal = false;     // folds to a constant
  bool simplifiable = false;  // dsl::is_simplifiable holds here or below
  std::uint16_t ops = 0;      // bit per dsl::Op used
  int units = 0;              // UnitSets id (unused without unit checking)
  std::int32_t kids[3] = {-1, -1, -1};
};

// One node of a canonical form (see SketchEnumerator::Impl::canonical).
struct Canon {
  Kind kind = Kind::kSignal;
  int value = 0;  // signal, hole id or operator
  std::size_t hash = 0;
  std::int32_t kids[3] = {-1, -1, -1};
};

std::uint16_t op_bit(dsl::Op o) { return static_cast<std::uint16_t>(1u << static_cast<int>(o)); }

// Trees placed between two polls of the stop predicate and the budget.
constexpr std::size_t kPollTrees = 4096;

}  // namespace

struct SketchEnumerator::Impl {
  dsl::Dsl dsl;
  EnumeratorOptions opts;
  int max_nodes;
  int max_depth;
  std::vector<dsl::Op> ops;   // operators a sketch may use
  std::uint16_t required = 0;  // exact operator set of a bucket
  UnitSets units;
  std::unique_ptr<EnumeratorBudget> own_budget;
  EnumeratorBudget* budget;
  std::size_t charged = 0;  // bytes this enumerator holds against the budget
  util::Status status;

  std::vector<Node> nodes;
  // pool[type][size]: ids of the subtrees that fit below the root (depth <=
  // max_depth - 1), sorted by depth. type 0 is numeric, 1 boolean.
  std::vector<std::vector<std::int32_t>> pool[2];
  int pooled = 0;  // sizes 1..pooled are built
  std::vector<std::int32_t> chain_scratch;

  bool exhausted = false;
  // A level build in progress was abandoned (stop fired or the budget ran
  // out); the loops unwind and the build is rolled back.
  bool aborted = false;
  const std::function<bool()>* stop = nullptr;  // set while a level is built
  std::size_t since_poll = 0;
  std::size_t models = 0;
  std::size_t emitted = 0;
  std::unordered_set<std::size_t> seen_hashes;
  // The current size's sketches (order key, root) in emission order, and the
  // next to emit.
  std::vector<std::pair<std::uint64_t, Node>> level;
  std::size_t level_pos = 0;
  std::vector<Canon> canon_scratch;
  // Sketches are enumerated in increasing size (node count): the refinement
  // loop samples the first N of a bucket, and small expressions are both the
  // likeliest true handlers and the cheapest to score.
  int current_size = 1;

  // A sketch using *exactly* the operator set B needs at least
  // 1 + sum(arity(o)) nodes: >= |B| internal nodes, and a tree with those
  // internal nodes has 1 + sum(arity - 1) leaves. Buckets whose bound
  // exceeds max_nodes are empty outright.
  int min_feasible_size() const {
    if (!opts.bucket) return 1;
    int bound = 1;
    for (dsl::Op o : *opts.bucket) bound += dsl::op_arity(o);
    return bound;
  }

  Impl(const dsl::Dsl& d, EnumeratorOptions o) : dsl(d), opts(std::move(o)) {
    budget = opts.budget;
    if (budget == nullptr) {
      own_budget = std::make_unique<EnumeratorBudget>(kDefaultEnumeratorMemoryMb << 20);
      budget = own_budget.get();
    }
    max_nodes = std::min(opts.max_nodes.value_or(dsl.max_nodes), 255);
    max_depth = opts.max_depth.value_or(dsl.max_depth);
    for (dsl::Op op : dsl.ops) {
      if (opts.bucket && std::find(opts.bucket->begin(), opts.bucket->end(), op) ==
                             opts.bucket->end()) {
        continue;
      }
      ops.push_back(op);
      required |= op_bit(op);
    }
    current_size = min_feasible_size();
    if (current_size > max_nodes || cube_unplaceable()) {
      exhausted = true;
      return;
    }
    for (auto& by_size : pool) by_size.resize(static_cast<std::size_t>(max_nodes));
  }

  ~Impl() { budget->release(charged); }

  // What the memo, the current level and the dedupe set hold.
  std::size_t bytes() const {
    std::size_t b = nodes.capacity() * sizeof(Node) +
                    level.capacity() * sizeof(decltype(level)::value_type) +
                    seen_hashes.bucket_count() * sizeof(void*) +
                    seen_hashes.size() * (sizeof(std::size_t) + 2 * sizeof(void*));
    for (const auto& by_size : pool) {
      for (const auto& ids : by_size) b += ids.capacity() * sizeof(std::int32_t);
    }
    return b;
  }

  // Brings the charge up (or down) to bytes(); false, with status set and
  // nothing more charged, when the budget cannot cover it.
  bool recharge() {
    const std::size_t now = bytes();
    if (now <= charged) {
      budget->release(charged - now);
    } else if (!budget->charge(now - charged)) {
      fail(now);
      return false;
    }
    charged = now;
    return true;
  }

  // A vector doubles when full: charge the new buffer before it exists.
  template <class T>
  bool room_for_one_more(std::vector<T>& v) {
    if (v.size() < v.capacity()) return true;
    const std::size_t grown = std::max<std::size_t>(2 * v.capacity(), 1024);
    const std::size_t extra = (grown - v.capacity()) * sizeof(T);
    if (!budget->charge(extra)) {
      fail(charged + extra);
      return false;
    }
    charged += extra;
    v.reserve(grown);
    return true;
  }

  void fail(std::size_t wanted) {
    aborted = true;
    if (!status.is_ok()) return;
    const std::string what =
        opts.bucket ? "bucket " + bucket_label(*opts.bucket) : std::string("the whole DSL");
    status = util::Status(
        util::StatusCode::kResourceExhausted,
        "enumerating " + what + " of DSL '" + dsl.name + "' at depth " +
            std::to_string(max_depth) + ", " + std::to_string(max_nodes) + " nodes, " +
            std::to_string(opts.max_holes) + " holes outgrew the enumerator budget of " +
            std::to_string(budget->limit() >> 20) + " MB at size " +
            std::to_string(current_size) + " (this enumerator asked for " +
            std::to_string(wanted >> 20) + " MB with " + std::to_string(budget->used() >> 20) +
            " MB in use); lower max_depth/max_nodes or raise enumerator_memory_mb");
  }

  // Frees the memo after a failure.
  void release_all() {
    nodes = {};
    for (auto& by_size : pool) by_size = {};
    level = {};
    seen_hashes = {};
    budget->release(charged);
    charged = 0;
  }

  // Called for every subtree placed while building: polls `stop` and the
  // budget every kPollTrees calls. False once the build is abandoned.
  bool keep_going() {
    if (aborted) return false;
    if (++since_poll < kPollTrees) return true;
    since_poll = 0;
    if (stop != nullptr && *stop && (*stop)()) {
      aborted = true;
    } else {
      recharge();
    }
    return !aborted;
  }

  // With unit checking, + and - keep a subtree at its parent's unit, so in a
  // bucket of only +, - and ^3 every node sits at the root's bytes unit, and
  // a cube there would need a cube root of bytes. Such a bucket is empty,
  // which building its levels would only find out at the node bound.
  bool cube_unplaceable() const {
    if (!opts.unit_check || !opts.bucket || (required & op_bit(dsl::Op::kCube)) == 0) return false;
    return std::all_of(ops.begin(), ops.end(), [](dsl::Op o) {
      return o == dsl::Op::kAdd || o == dsl::Op::kSub || o == dsl::Op::kCube;
    });
  }

  // The pooled subtrees of `type` with `size` nodes and depth <= depth_limit.
  std::span<const std::int32_t> kids_of(int type, int size, int depth_limit) const {
    const auto& ids = pool[type][size];
    return {ids.begin(), std::partition_point(ids.begin(), ids.end(), [&](std::int32_t id) {
              return nodes[id].depth <= depth_limit;
            })};
  }

  bool same(std::int32_t a, std::int32_t b) const { return a == b && nodes[a].holes == 0; }

  void chain_terms(std::int32_t id, std::vector<std::int32_t>& terms) const {
    const Node& n = nodes[id];
    if (n.kind == Kind::kOp && (n.op == dsl::Op::kAdd || n.op == dsl::Op::kSub)) {
      chain_terms(n.kids[0], terms);
      chain_terms(n.kids[1], terms);
    } else {
      terms.push_back(id);
    }
  }

  // dsl::is_simplifiable's rule at one node whose children are memo
  // subtrees (the rules it shares with admissible() are not repeated).
  bool simplifiable_here(const Node& n) {
    if (n.no_signal) return true;
    const std::int32_t a = n.kids[0], b = n.kids[1];
    switch (n.op) {
      case dsl::Op::kAdd:
      case dsl::Op::kSub: {
        std::vector<std::int32_t>& terms = chain_scratch;
        terms.clear();
        chain_terms(a, terms);
        chain_terms(b, terms);
        std::size_t constant_terms = 0;
        for (std::size_t i = 0; i < terms.size(); ++i) {
          if (nodes[terms[i]].no_signal && ++constant_terms >= 2) return true;
          for (std::size_t j = i + 1; j < terms.size(); ++j) {
            if (same(terms[i], terms[j])) return true;
          }
        }
        return false;
      }
      case dsl::Op::kDiv:
        return same(a, b) || (nodes[b].kind == Kind::kHole &&
                               nodes[a].kind != Kind::kOp);
      case dsl::Op::kCond: return same(b, n.kids[2]);
      case dsl::Op::kLt:
      case dsl::Op::kGt:
      case dsl::Op::kModEq: return same(a, b);
      default: return false;
    }
  }

  // The anti-simplification structure every sketch obeys (§4.1): no binary
  // operator over two holes, left-leaning + and * chains, no nested
  // division, no cube/cube-root of its inverse or of a bare hole.
  bool admissible(dsl::Op op, const std::int32_t* k) const {
    const Node& a = nodes[k[0]];
    auto is_op = [this](std::int32_t id, dsl::Op o) {
      return nodes[id].kind == Kind::kOp && nodes[id].op == o;
    };
    switch (op) {
      case dsl::Op::kCube:
        return a.kind != Kind::kHole && !is_op(k[0], dsl::Op::kCbrt);
      case dsl::Op::kCbrt:
        return a.kind != Kind::kHole && !is_op(k[0], dsl::Op::kCube);
      case dsl::Op::kCond: return true;
      default: break;
    }
    if (a.kind == Kind::kHole && nodes[k[1]].kind == Kind::kHole) return false;
    if (op == dsl::Op::kAdd) return !is_op(k[1], dsl::Op::kAdd);
    if (op == dsl::Op::kMul) return !is_op(k[1], dsl::Op::kMul);
    if (op == dsl::Op::kDiv) return !is_op(k[0], dsl::Op::kDiv) && !is_op(k[1], dsl::Op::kDiv);
    return true;
  }

  // Completes `n` (operator and kids set) into a subtree that satisfies the
  // hole bound, the structure rules and unit feasibility; false otherwise.
  bool complete(Node& n, int arity) {
    int holes = 0, depth = 0, size = 1;
    n.ops = op_bit(n.op);
    n.no_signal = true;
    for (int i = 0; i < arity; ++i) {
      const Node& c = nodes[n.kids[i]];
      holes += c.holes;
      depth = std::max<int>(depth, c.depth);
      size += c.size;
      n.ops |= c.ops;
      n.no_signal = n.no_signal && c.no_signal;
    }
    if (holes > opts.max_holes || !admissible(n.op, n.kids)) return false;
    if (opts.unit_check) {
      const int a = nodes[n.kids[0]].units;
      const int b = arity == 1 ? 0 : nodes[n.kids[arity - 1]].units;
      n.units = units.combine(n.op, arity == 3 ? nodes[n.kids[1]].units : a, b);
      if (n.units == 0) return false;
    }
    n.holes = static_cast<std::uint8_t>(holes);
    n.depth = static_cast<std::uint8_t>(depth + 1);
    n.size = static_cast<std::uint8_t>(size);
    n.simplifiable = simplifiable_here(n);
    for (int i = 0; i < arity && !n.simplifiable; ++i) {
      n.simplifiable = nodes[n.kids[i]].simplifiable;
    }
    return true;
  }

  // Calls emit(node) for every admissible tree of type `type` (0 numeric,
  // 1 boolean) with exactly `size` nodes and depth <= depth_limit that uses
  // at least the operators in `need`, built from the pooled subtrees.
  template <class Emit>
  void for_each_tree(int type, int size, int depth_limit, std::uint16_t need, Emit&& emit) {
    if (depth_limit < 1) return;
    if (size == 1) {
      if (type == 1 || need != 0) return;
      Node n;
      for (dsl::Signal s : dsl.signals) {
        n.kind = Kind::kSignal;
        n.signal = s;
        if (opts.unit_check) n.units = units.leaf(dsl::signal_unit(s));
        emit(n);
      }
      if (dsl.allow_constants && opts.max_holes >= 1) {
        n = Node{};
        n.kind = Kind::kHole;
        n.holes = 1;
        n.no_signal = true;
        if (opts.unit_check) n.units = units.hole();
        emit(n);
      }
      return;
    }
    for (dsl::Op op : ops) {
      if (aborted) return;
      if ((dsl::op_returns_bool(op) ? 1 : 0) != type) continue;
      Node n;
      n.kind = Kind::kOp;
      n.op = op;
      fill_kids(n, 0, size - 1, depth_limit - 1,
                need & static_cast<std::uint16_t>(~op_bit(op)), emit);
    }
  }

  // Places pooled subtrees of depth <= below and `left` nodes in total into
  // n.kids[slot..] (a conditional's guard is boolean, every other operand
  // numeric) and emits each completed tree that also uses every operator
  // of `missing`.
  template <class Emit>
  void fill_kids(Node& n, int slot, int left, int below, std::uint16_t missing, Emit& emit) {
    const int arity = dsl::op_arity(n.op);
    if (slot == arity) {
      if (missing == 0 && complete(n, arity)) emit(n);
      return;
    }
    const int type = n.op == dsl::Op::kCond && slot == 0 ? 1 : 0;
    const int after = arity - slot - 1;  // operands still to place, >= 1 node each
    for (int size = after == 0 ? left : 1; size <= left - after; ++size) {
      for (std::int32_t kid : kids_of(type, size, below)) {
        if (!keep_going()) return;
        n.kids[slot] = kid;
        fill_kids(n, slot + 1, left - size, below,
                  static_cast<std::uint16_t>(missing & ~nodes[kid].ops), emit);
      }
    }
  }

  // Memoizes every subtree of `size` nodes that fits below a root. False,
  // with nothing of this size kept, when the build is abandoned.
  bool pool_size(int size) {
    const std::size_t mark = nodes.size();
    for (int type = 0; type < 2; ++type) {
      auto& ids = pool[type][size];
      for_each_tree(type, size, max_depth - 1, 0, [&](const Node& n) {
        if (!room_for_one_more(nodes)) return;
        ids.push_back(static_cast<std::int32_t>(nodes.size()));
        nodes.push_back(n);
      });
      std::stable_sort(ids.begin(), ids.end(), [this](std::int32_t x, std::int32_t y) {
        return nodes[x].depth < nodes[y].depth;
      });
    }
    if (!aborted) return true;
    nodes.resize(mark);
    for (auto& by_size : pool) by_size[static_cast<std::size_t>(size)].clear();
    return false;
  }

  dsl::ExprPtr to_expr(const Node& n, int& next_hole) const {
    if (n.kind == Kind::kSignal) return dsl::sig(n.signal);
    if (n.kind == Kind::kHole) return dsl::hole(next_hole++);
    std::vector<dsl::ExprPtr> kids;
    for (int k = 0; k < dsl::op_arity(n.op); ++k) {
      kids.push_back(to_expr(nodes[n.kids[k]], next_hole));
    }
    return dsl::node(n.op, std::move(kids));
  }

  // Appends dsl::canonicalize(to_expr(n)) to canon_scratch, with
  // dsl::hash_expr's hash per node, and returns its index: a level is
  // deduplicated and ordered without building an Expr per tree.
  std::int32_t canonical(const Node& n, int& next_hole) {
    Canon c;
    c.kind = n.kind;
    c.value = n.kind == Kind::kSignal ? static_cast<int>(n.signal)
              : n.kind == Kind::kHole ? next_hole++
                                      : static_cast<int>(n.op);
    const int arity = n.kind == Kind::kOp ? dsl::op_arity(n.op) : 0;
    for (int k = 0; k < arity; ++k) c.kids[k] = canonical(nodes[n.kids[k]], next_hole);
    if (arity == 2 && (n.op == dsl::Op::kAdd || n.op == dsl::Op::kMul) &&
        compare_canonical(c.kids[0], c.kids[1]) > 0) {
      std::swap(c.kids[0], c.kids[1]);
    }
    c.hash = dsl::hash_head(c.kind, static_cast<std::size_t>(c.value));
    for (int k = 0; k < arity; ++k) {
      c.hash = dsl::hash_combine(c.hash, canon_scratch[c.kids[k]].hash);
    }
    canon_scratch.push_back(c);
    return static_cast<std::int32_t>(canon_scratch.size() - 1);
  }

  std::size_t canonical_hash(const Node& n) {
    canon_scratch.clear();
    int next_hole = 0;
    return canon_scratch[canonical(n, next_hole)].hash;
  }

  // dsl::compare over canon_scratch.
  int compare_canonical(std::int32_t a, std::int32_t b) const {
    const Canon& x = canon_scratch[a];
    const Canon& y = canon_scratch[b];
    if (x.kind != y.kind) return x.kind < y.kind ? -1 : 1;
    if (x.value != y.value) return x.value < y.value ? -1 : 1;
    if (x.kind != Kind::kOp) return 0;
    for (int k = 0; k < dsl::op_arity(static_cast<dsl::Op>(x.value)); ++k) {
      if (const int c = compare_canonical(x.kids[k], y.kids[k]); c != 0) return c;
    }
    return 0;
  }

  // Every sketch of `size` nodes, in emission order: by splitmix64 of the
  // structural hash of its canonical form, which spreads the hashes so the
  // order is unrelated to how the sketches were built. Hashes are
  // deduplicated and the mix is a bijection, so no two keys tie. False,
  // with the level and its hashes dropped, when the build is abandoned.
  bool build_level(int size) {
    static auto& c_models = obs::counter("synth.solver_models");
    for (; pooled < size - 1; ++pooled) {
      if (!pool_size(pooled + 1)) return false;
    }
    level.clear();
    level_pos = 0;
    std::size_t found = 0;
    for_each_tree(0, size, max_depth, opts.bucket ? required : 0, [&](const Node& n) {
      if (opts.unit_check && !units.contains(n.units, dsl::kBytesUnit)) return;
      ++found;
      if (n.simplifiable) return;
      const std::size_t h = canonical_hash(n);
      if (seen_hashes.count(h) != 0 || !room_for_one_more(level)) return;
      seen_hashes.insert(h);
      std::uint64_t key = h;
      level.emplace_back(util::splitmix64(key), n);
    });
    if (aborted) {
      // The dedupe set forgets the level again, so a rebuild finds it whole.
      for (const auto& entry : level) seen_hashes.erase(canonical_hash(entry.second));
      level.clear();
      return false;
    }
    models += found;
    c_models.add(found);
    std::sort(level.begin(), level.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    return recharge();
  }

  std::optional<dsl::ExprPtr> next(const std::function<bool()>& stop_fn) {
    static auto& c_emitted = obs::counter("synth.sketches_emitted");
    while (!exhausted && status.is_ok()) {
      if (level_pos < level.size()) {
        int next_hole = 0;
        const dsl::ExprPtr sketch = to_expr(level[level_pos++].second, next_hole);
        // The post-filter half of the paper's sympy-based non-simplifiability
        // check (the subtree memo applies the same rules, so this never
        // rejects), then the canonical form that deduplicated the level.
        if (dsl::is_simplifiable(*sketch)) continue;
        dsl::ExprPtr canon = dsl::canonicalize(sketch);
        ++emitted;
        c_emitted.add();
        // Journal the sketch under the caller's provenance (the refinement
        // loop enumerates inside its bucket scope; no scope, no event).
        if (obs::journal_enabled()) obs::journal_record_sketch(dsl::hash_expr(*canon));
        return canon;
      }
      if (current_size > max_nodes) {
        exhausted = true;
        level.clear();
        break;
      }
      stop = &stop_fn;
      aborted = false;
      const bool built = build_level(current_size);
      stop = nullptr;
      if (!built) break;
      ++current_size;
    }
    if (!status.is_ok()) release_all();
    return std::nullopt;
  }
};

SketchEnumerator::SketchEnumerator(const dsl::Dsl& dsl, EnumeratorOptions opts)
    : impl_(std::make_unique<Impl>(dsl, std::move(opts))) {}

SketchEnumerator::~SketchEnumerator() = default;

std::optional<dsl::ExprPtr> SketchEnumerator::next(const std::function<bool()>& stop) {
  return impl_->next(stop);
}
bool SketchEnumerator::exhausted() const { return impl_->exhausted; }
const util::Status& SketchEnumerator::status() const { return impl_->status; }
std::size_t SketchEnumerator::models_enumerated() const { return impl_->models; }
std::size_t SketchEnumerator::sketches_emitted() const { return impl_->emitted; }

std::vector<dsl::ExprPtr> enumerate_all(const dsl::Dsl& dsl, const EnumeratorOptions& opts,
                                        std::size_t cap) {
  SketchEnumerator e(dsl, opts);
  std::vector<dsl::ExprPtr> out;
  while (out.size() < cap) {
    auto s = e.next();
    if (!s) break;
    out.push_back(std::move(*s));
  }
  return out;
}

}  // namespace abg::synth
