#include <functional>
#include "dsl/dsl.hpp"

#include <algorithm>
#include <stdexcept>

namespace abg::dsl {

bool Dsl::has_signal(Signal s) const {
  return std::find(signals.begin(), signals.end(), s) != signals.end();
}

bool Dsl::has_op(Op o) const { return std::find(ops.begin(), ops.end(), o) != ops.end(); }

std::size_t Dsl::element_count() const {
  return signals.size() + ops.size() + (allow_constants ? 1 : 0);
}

std::vector<double> default_constant_pool() {
  // Coefficients, thresholds and gains observed across the kernel CCAs
  // (§4.2: "we limit the values constants can take to a small set of values
  // observed in known CCAs").
  return {0.0, 0.16, 0.2, 0.25, 0.3, 0.35, 0.37, 0.5, 0.68, 0.7, 0.8,
          1.0, 1.3,  2.0, 2.05, 2.15, 2.6, 2.7,  3.0, 5.0,  8.0};
}

namespace {

Dsl base_dsl() {
  Dsl d;
  d.signals = {Signal::kMss, Signal::kAckedBytes, Signal::kTimeSinceLoss, Signal::kCwnd,
               Signal::kRenoInc};
  d.ops = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kCond, Op::kLt, Op::kGt, Op::kModEq};
  d.allow_constants = true;
  d.max_depth = 4;
  d.max_nodes = 15;
  d.constant_pool = default_constant_pool();
  return d;
}

void add_rate_delay_signals(Dsl& d) {
  d.signals.insert(d.signals.end(),
                   {Signal::kRtt, Signal::kMinRtt, Signal::kMaxRtt, Signal::kAckRate,
                    Signal::kRttGradient, Signal::kHtcpDiff, Signal::kRttsSinceLoss});
}

}  // namespace

Dsl reno_dsl() {
  Dsl d = base_dsl();
  d.name = "reno";
  return d;
}

Dsl cubic_dsl() {
  Dsl d = base_dsl();
  d.name = "cubic";
  d.signals.push_back(Signal::kWMax);
  // Window-curve CCAs are purely arithmetic: polynomial in time-since-loss
  // anchored at wmax; no conditionals needed at this granularity.
  d.ops = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kCube, Op::kCbrt};
  d.max_depth = 5;
  return d;
}

Dsl rate_delay_dsl() {
  Dsl d = base_dsl();
  d.name = "rate-delay";
  add_rate_delay_signals(d);
  return d;
}

Dsl vegas_dsl() {
  Dsl d = rate_delay_dsl();
  d.name = "vegas";
  // The family's signature signals lead the list for the reader; the list's
  // order does not steer the search, which orders the sketches of one size
  // by a hash of their canonical form (synth/enumerator.hpp).
  d.signals = {Signal::kVegasDiff, Signal::kRenoInc, Signal::kCwnd,   Signal::kMss,
               Signal::kAckedBytes, Signal::kTimeSinceLoss, Signal::kRtt,
               Signal::kMinRtt,     Signal::kMaxRtt,         Signal::kAckRate,
               Signal::kRttGradient, Signal::kHtcpDiff,      Signal::kRttsSinceLoss};
  // Family-specific operator curation (§3.3): Vegas-style CCAs branch on a
  // delay threshold and scale additive terms; they use no modulo and no
  // division (the vegas-diff macro already encapsulates the only quotient).
  d.ops = {Op::kAdd, Op::kSub, Op::kMul, Op::kCond, Op::kLt, Op::kGt};
  d.max_depth = 5;
  return d;
}

Dsl bbr_dsl() {
  Dsl d = rate_delay_dsl();
  d.name = "bbr";
  // Rate-based pulsing CCAs: products of rate and delay signals plus a
  // modulo-driven pulse condition; subtraction/division are not used.
  d.ops = {Op::kAdd, Op::kMul, Op::kCond, Op::kLt, Op::kGt, Op::kModEq};
  d.max_depth = 5;
  return d;
}

Dsl delay7_dsl() {
  Dsl d = rate_delay_dsl();
  d.name = "delay7";
  d.max_depth = 4;
  d.max_nodes = 7;
  return d;
}

Dsl delay11_dsl() {
  Dsl d = rate_delay_dsl();
  d.name = "delay11";
  d.max_depth = 4;
  d.max_nodes = 11;
  return d;
}

Dsl vegas11_dsl() {
  Dsl d = vegas_dsl();
  d.name = "vegas11";
  d.max_depth = 5;
  d.max_nodes = 11;
  return d;
}

Dsl dsl_by_name(const std::string& name) {
  if (name == "reno") return reno_dsl();
  if (name == "cubic") return cubic_dsl();
  if (name == "rate-delay") return rate_delay_dsl();
  if (name == "vegas") return vegas_dsl();
  if (name == "bbr") return bbr_dsl();
  if (name == "delay7") return delay7_dsl();
  if (name == "delay11") return delay11_dsl();
  if (name == "vegas11") return vegas11_dsl();
  throw std::invalid_argument("unknown DSL: " + name);
}

std::vector<std::string> curated_dsl_names() {
  return {"reno", "cubic", "rate-delay", "vegas", "bbr", "delay7", "delay11", "vegas11"};
}

double sketch_space_size(const Dsl& dsl, int max_depth) {
  // num[d] / boo[d]: number of num- / bool-typed trees of depth <= d.
  std::vector<double> num(static_cast<std::size_t>(max_depth) + 1, 0.0);
  std::vector<double> boo(static_cast<std::size_t>(max_depth) + 1, 0.0);
  const double leaves = static_cast<double>(dsl.signals.size()) + (dsl.allow_constants ? 1 : 0);
  for (int d = 1; d <= max_depth; ++d) {
    const auto di = static_cast<std::size_t>(d);
    double n = leaves;
    double b = 0.0;
    if (d > 1) {
      const double cn = num[di - 1];
      const double cb = boo[di - 1];
      for (Op o : dsl.ops) {
        switch (o) {
          case Op::kAdd:
          case Op::kSub:
          case Op::kMul:
          case Op::kDiv: n += cn * cn; break;
          case Op::kCond: n += cb * cn * cn; break;
          case Op::kCube:
          case Op::kCbrt: n += cn; break;
          case Op::kLt:
          case Op::kGt:
          case Op::kModEq: b += cn * cn; break;
        }
      }
    }
    num[di] = n;
    boo[di] = b;
  }
  return num[static_cast<std::size_t>(max_depth)];
}

bool within_dsl(const Expr& e, const Dsl& dsl) {
  if (depth(e) > dsl.max_depth || node_count(e) > dsl.max_nodes) return false;
  bool ok = true;
  std::function<void(const Expr&)> walk = [&](const Expr& x) {
    if (!ok) return;
    switch (x.kind) {
      case Expr::Kind::kSignal:
        if (!dsl.has_signal(x.signal)) ok = false;
        break;
      case Expr::Kind::kConst:
      case Expr::Kind::kHole:
        if (!dsl.allow_constants) ok = false;
        break;
      case Expr::Kind::kOp:
        if (!dsl.has_op(x.op)) ok = false;
        break;
    }
    for (const auto& c : x.children) walk(*c);
  };
  walk(e);
  return ok;
}

}  // namespace abg::dsl
