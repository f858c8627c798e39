#include "dsl/expr.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <functional>

namespace abg::dsl {

const char* signal_name(Signal s) {
  switch (s) {
    case Signal::kMss: return "mss";
    case Signal::kAckedBytes: return "acked";
    case Signal::kTimeSinceLoss: return "time-since-loss";
    case Signal::kRtt: return "rtt";
    case Signal::kMinRtt: return "min-rtt";
    case Signal::kMaxRtt: return "max-rtt";
    case Signal::kAckRate: return "ack-rate";
    case Signal::kRttGradient: return "rtt-gradient";
    case Signal::kCwnd: return "cwnd";
    case Signal::kWMax: return "wmax";
    case Signal::kRenoInc: return "reno-inc";
    case Signal::kVegasDiff: return "vegas-diff";
    case Signal::kHtcpDiff: return "htcp-diff";
    case Signal::kRttsSinceLoss: return "rtts-since-loss";
  }
  return "?";
}

const char* op_name(Op o) {
  switch (o) {
    case Op::kAdd: return "+";
    case Op::kSub: return "-";
    case Op::kMul: return "*";
    case Op::kDiv: return "/";
    case Op::kCond: return "?:";
    case Op::kCube: return "^3";
    case Op::kCbrt: return "cbrt";
    case Op::kLt: return "<";
    case Op::kGt: return ">";
    case Op::kModEq: return "%=0";
  }
  return "?";
}

bool op_returns_bool(Op o) { return o == Op::kLt || o == Op::kGt || o == Op::kModEq; }

int op_arity(Op o) {
  switch (o) {
    case Op::kCube:
    case Op::kCbrt: return 1;
    case Op::kCond: return 3;
    default: return 2;
  }
}

bool signal_is_macro(Signal s) {
  return s == Signal::kRenoInc || s == Signal::kVegasDiff || s == Signal::kHtcpDiff ||
         s == Signal::kRttsSinceLoss;
}

// --- Builders -------------------------------------------------------------

ExprPtr sig(Signal s) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kSignal;
  e->signal = s;
  return e;
}

ExprPtr constant(double v) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kConst;
  e->value = v;
  return e;
}

ExprPtr hole(int id) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kHole;
  e->hole_id = id;
  return e;
}

ExprPtr node(Op o, std::vector<ExprPtr> children) {
  assert(static_cast<int>(children.size()) == op_arity(o));
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kOp;
  e->op = o;
  e->children = std::move(children);
  return e;
}

ExprPtr add(ExprPtr a, ExprPtr b) { return node(Op::kAdd, {std::move(a), std::move(b)}); }
ExprPtr sub(ExprPtr a, ExprPtr b) { return node(Op::kSub, {std::move(a), std::move(b)}); }
ExprPtr mul(ExprPtr a, ExprPtr b) { return node(Op::kMul, {std::move(a), std::move(b)}); }
ExprPtr div(ExprPtr a, ExprPtr b) { return node(Op::kDiv, {std::move(a), std::move(b)}); }
ExprPtr cond(ExprPtr c, ExprPtr then_e, ExprPtr else_e) {
  return node(Op::kCond, {std::move(c), std::move(then_e), std::move(else_e)});
}
ExprPtr cube(ExprPtr a) { return node(Op::kCube, {std::move(a)}); }
ExprPtr cbrt(ExprPtr a) { return node(Op::kCbrt, {std::move(a)}); }
ExprPtr lt(ExprPtr a, ExprPtr b) { return node(Op::kLt, {std::move(a), std::move(b)}); }
ExprPtr gt(ExprPtr a, ExprPtr b) { return node(Op::kGt, {std::move(a), std::move(b)}); }
ExprPtr mod_eq(ExprPtr a, ExprPtr b) { return node(Op::kModEq, {std::move(a), std::move(b)}); }

// --- Structure ------------------------------------------------------------

int depth(const Expr& e) {
  if (e.kind != Expr::Kind::kOp) return 1;
  int d = 0;
  for (const auto& c : e.children) d = std::max(d, depth(*c));
  return d + 1;
}

int node_count(const Expr& e) {
  if (e.kind != Expr::Kind::kOp) return 1;
  int n = 1;
  for (const auto& c : e.children) n += node_count(*c);
  return n;
}

std::vector<int> hole_ids(const Expr& e) {
  std::vector<int> ids;
  std::function<void(const Expr&)> walk = [&](const Expr& x) {
    if (x.kind == Expr::Kind::kHole) {
      if (std::find(ids.begin(), ids.end(), x.hole_id) == ids.end()) ids.push_back(x.hole_id);
    }
    for (const auto& c : x.children) walk(*c);
  };
  walk(e);
  return ids;
}

int hole_count(const Expr& e) { return static_cast<int>(hole_ids(e).size()); }

bool equal(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Expr::Kind::kSignal: return a.signal == b.signal;
    case Expr::Kind::kConst: return a.value == b.value;
    case Expr::Kind::kHole: return a.hole_id == b.hole_id;
    case Expr::Kind::kOp: {
      if (a.op != b.op || a.children.size() != b.children.size()) return false;
      for (std::size_t i = 0; i < a.children.size(); ++i) {
        if (!equal(*a.children[i], *b.children[i])) return false;
      }
      return true;
    }
  }
  return false;
}

std::size_t hash_combine(std::size_t h, std::size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

std::size_t hash_head(Expr::Kind kind, std::size_t payload) {
  const std::size_t offset = kind == Expr::Kind::kHole ? 77 : kind == Expr::Kind::kOp ? 101 : 0;
  return hash_combine(static_cast<std::size_t>(kind) * 1315423911u, payload + offset);
}

std::size_t hash_expr(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kSignal: return hash_head(e.kind, static_cast<std::size_t>(e.signal));
    case Expr::Kind::kConst: return hash_head(e.kind, std::hash<double>{}(e.value));
    case Expr::Kind::kHole: return hash_head(e.kind, static_cast<std::size_t>(e.hole_id));
    case Expr::Kind::kOp: break;
  }
  std::size_t h = hash_head(e.kind, static_cast<std::size_t>(e.op));
  for (const auto& c : e.children) h = hash_combine(h, hash_expr(*c));
  return h;
}

ExprPtr fill_holes(const ExprPtr& e, const std::vector<double>& values) {
  const auto ids = hole_ids(*e);
  std::function<ExprPtr(const ExprPtr&)> walk = [&](const ExprPtr& x) -> ExprPtr {
    switch (x->kind) {
      case Expr::Kind::kHole: {
        const auto it = std::find(ids.begin(), ids.end(), x->hole_id);
        const auto pos = static_cast<std::size_t>(it - ids.begin());
        const double v = values.empty()
                             ? 1.0
                             : values[std::min(pos, values.size() - 1)];
        return constant(v);
      }
      case Expr::Kind::kOp: {
        std::vector<ExprPtr> kids;
        kids.reserve(x->children.size());
        for (const auto& c : x->children) kids.push_back(walk(c));
        return node(x->op, std::move(kids));
      }
      default:
        return x;
    }
  };
  return walk(e);
}

ExprPtr to_sketch(const ExprPtr& e) {
  int next_id = 0;
  std::function<ExprPtr(const ExprPtr&)> walk = [&](const ExprPtr& x) -> ExprPtr {
    switch (x->kind) {
      case Expr::Kind::kConst: return hole(next_id++);
      case Expr::Kind::kOp: {
        std::vector<ExprPtr> kids;
        kids.reserve(x->children.size());
        for (const auto& c : x->children) kids.push_back(walk(c));
        return node(x->op, std::move(kids));
      }
      default:
        return x;
    }
  };
  return walk(e);
}

namespace {

void print(const Expr& e, std::string& out) {
  switch (e.kind) {
    case Expr::Kind::kSignal:
      out += signal_name(e.signal);
      return;
    case Expr::Kind::kConst: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", e.value);
      out += buf;
      return;
    }
    case Expr::Kind::kHole: {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "c%d", e.hole_id);
      out += buf;
      return;
    }
    case Expr::Kind::kOp:
      break;
  }
  auto paren = [&out](const Expr& c) {
    const bool need = c.kind == Expr::Kind::kOp && op_arity(c.op) != 1;
    if (need) out += '(';
    print(c, out);
    if (need) out += ')';
  };
  switch (e.op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kLt:
    case Op::kGt:
      paren(*e.children[0]);
      out += ' ';
      out += op_name(e.op);
      out += ' ';
      paren(*e.children[1]);
      return;
    case Op::kModEq:
      paren(*e.children[0]);
      out += " % ";
      paren(*e.children[1]);
      out += " = 0";
      return;
    case Op::kCond:
      out += '{';
      print(*e.children[0], out);
      out += "} ? ";
      paren(*e.children[1]);
      out += " : ";
      paren(*e.children[2]);
      return;
    case Op::kCube:
      paren(*e.children[0]);
      out += "^3";
      return;
    case Op::kCbrt:
      out += "cbrt(";
      print(*e.children[0], out);
      out += ')';
      return;
  }
}

}  // namespace

std::string to_string(const Expr& e) {
  std::string out;
  print(e, out);
  return out;
}

std::vector<Signal> signals_used(const Expr& e) {
  std::vector<Signal> out;
  std::function<void(const Expr&)> walk = [&](const Expr& x) {
    if (x.kind == Expr::Kind::kSignal &&
        std::find(out.begin(), out.end(), x.signal) == out.end()) {
      out.push_back(x.signal);
    }
    for (const auto& c : x.children) walk(*c);
  };
  walk(e);
  return out;
}

std::vector<Op> ops_used(const Expr& e) {
  std::vector<Op> out;
  std::function<void(const Expr&)> walk = [&](const Expr& x) {
    if (x.kind == Expr::Kind::kOp && std::find(out.begin(), out.end(), x.op) == out.end()) {
      out.push_back(x.op);
    }
    for (const auto& c : x.children) walk(*c);
  };
  walk(e);
  return out;
}

}  // namespace abg::dsl
