// The expression AST for cwnd-on-ack handlers (Listing 1 of the paper):
//
//   cong-signal : mss | acked-bytes | time-since-loss
//                 | rtt | min-rtt | max-rtt | ack-rate | rtt-gradient
//   num  : cwnd | cong-signal | constant
//        | num + num | num - num | num * num | num / num
//        | bool ? num : num | num^3 | cbrt(num)
//   bool : num < num | num > num | num % num = 0
//
// plus the four pre-defined macros of Table 1 (reno-inc, vegas-diff,
// htcp-diff, RTTs-since-loss), which enter the grammar as extra signal
// leaves so that they cost a single level of depth (§6.1).
//
// A *sketch* is an expression whose constant leaves are unfilled Holes; a
// *handler* is a fully concrete expression (§4.1-4.2).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace abg::dsl {

// Leaf congestion signals and macros. Order is stable; used as array index.
enum class Signal : std::uint8_t {
  kMss,
  kAckedBytes,
  kTimeSinceLoss,
  kRtt,
  kMinRtt,
  kMaxRtt,
  kAckRate,
  kRttGradient,
  kCwnd,
  kWMax,  // window held at the last loss event (Cubic's "wmax", Table 2)
  // Macros (Table 1):
  kRenoInc,        // acked * mss / cwnd
  kVegasDiff,      // (rtt - min_rtt) * ack_rate / mss
  kHtcpDiff,       // (rtt - min_rtt) / max_rtt
  kRttsSinceLoss,  // time_since_loss / rtt
};
inline constexpr std::size_t kSignalCount = 14;

// Operators. kAdd..kCbrt produce num; kLt..kModEq produce bool.
enum class Op : std::uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kCond,  // bool ? num : num
  kCube,  // num^3
  kCbrt,  // cbrt(num)
  kLt,    // num < num
  kGt,    // num > num
  kModEq, // num % num == 0
};
inline constexpr std::size_t kOpCount = 10;

const char* signal_name(Signal s);
const char* op_name(Op o);
bool op_returns_bool(Op o);
int op_arity(Op o);
// True for macros (kRenoInc..kRttsSinceLoss).
bool signal_is_macro(Signal s);

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr {
  enum class Kind : std::uint8_t { kSignal, kConst, kHole, kOp };

  Kind kind = Kind::kConst;
  Signal signal = Signal::kMss;  // kSignal
  double value = 0.0;            // kConst
  int hole_id = 0;               // kHole
  Op op = Op::kAdd;              // kOp
  std::vector<ExprPtr> children; // kOp

  bool is_num() const { return kind != Kind::kOp || !op_returns_bool(op); }
  bool is_bool() const { return kind == Kind::kOp && op_returns_bool(op); }
};

// --- Builders -------------------------------------------------------------
ExprPtr sig(Signal s);
ExprPtr constant(double v);
ExprPtr hole(int id);
ExprPtr node(Op o, std::vector<ExprPtr> children);
ExprPtr add(ExprPtr a, ExprPtr b);
ExprPtr sub(ExprPtr a, ExprPtr b);
ExprPtr mul(ExprPtr a, ExprPtr b);
ExprPtr div(ExprPtr a, ExprPtr b);
ExprPtr cond(ExprPtr c, ExprPtr then_e, ExprPtr else_e);
ExprPtr cube(ExprPtr a);
ExprPtr cbrt(ExprPtr a);
ExprPtr lt(ExprPtr a, ExprPtr b);
ExprPtr gt(ExprPtr a, ExprPtr b);
ExprPtr mod_eq(ExprPtr a, ExprPtr b);

// --- Structure ------------------------------------------------------------
// Tree depth; leaves (signals, constants, holes, macros) have depth 1.
int depth(const Expr& e);
// Total node count.
int node_count(const Expr& e);
// Number of distinct hole ids.
int hole_count(const Expr& e);
// Collect distinct hole ids in first-appearance order.
std::vector<int> hole_ids(const Expr& e);
// Structural equality.
bool equal(const Expr& a, const Expr& b);
// Structural hash (for dedup sets): hash_head(kind, payload) starts a node
// (payload: the signal, hole id or operator; std::hash of a constant), and
// hash_combine folds in each child's hash in order. Trees that are not Exprs
// hash with the same two steps (synth::SketchEnumerator).
std::size_t hash_expr(const Expr& e);
std::size_t hash_head(Expr::Kind kind, std::size_t payload);
std::size_t hash_combine(std::size_t h, std::size_t v);
// Replace every hole with the value assigned to its id; ids beyond the span
// map to the last value. `values` indexed by position in hole_ids(e).
ExprPtr fill_holes(const ExprPtr& e, const std::vector<double>& values);
// Replace every constant with a hole (inverse of fill_holes; used to recover
// a handler's sketch).
ExprPtr to_sketch(const ExprPtr& e);

// Human-readable rendering, e.g. "cwnd + 0.7*reno-inc".
std::string to_string(const Expr& e);

// Every signal used in the expression (deduplicated, stable order).
std::vector<Signal> signals_used(const Expr& e);
// Every operator used in the expression (deduplicated, stable order).
std::vector<Op> ops_used(const Expr& e);

}  // namespace abg::dsl
