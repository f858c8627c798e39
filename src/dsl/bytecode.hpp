// The handler interpreter: compile() lowers an expression to a flat postfix
// program, and run_batch() evaluates it for up to kBatchLanes hole-
// assignments in lockstep. It is the only way the program runs a handler —
// the search scores candidates through it (synth::replay_batch), and final
// validation, full-trace replay and core::HandlerCca run it with one lane.
//
// Semantics (the tests' tree-walking oracle spells them out node by node):
// every opcode performs the arithmetic of its expression node, in the same
// order, on the same doubles. Division by zero yields 0, `a % b = 0` holds
// within kModTolerance of a multiple, a conditional whose guard is not a
// comparison takes its else arm, and a guarded division or a conditional
// evaluates both sides and selects. Evaluating both sides cannot change the
// result because every subexpression is pure and defined on every input, so
// the selected value is computed by the identical expression.
//
// Holes compile to lane-varying input slots instead of being substituted, so
// one compiled sketch serves every concretization. Slot numbering matches
// hole_ids()/fill_holes(): slot = position of the hole id in first-
// appearance order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cca/signals.hpp"
#include "dsl/expr.hpp"

namespace abg::dsl {

enum class BcOp : std::uint8_t {
  kPushSignal,  // arg = Signal; push signal_value(arg, sig)
  kPushConst,   // arg = index into Program::consts
  kPushHole,    // arg = hole slot; push the lane's binding
  kAdd,         // pop b, a; push a + b
  kSub,         // pop b, a; push a - b
  kMul,         // pop b, a; push a * b
  kDivGuard,    // pop b, a; push b != 0 ? a / b : 0
  kCube,        // pop v; push v * v * v
  kCbrt,        // pop v; push cbrt(v)
  kLt,          // pop b, a; push a < b ? 1.0 : 0.0
  kGt,          // pop b, a; push a > b ? 1.0 : 0.0
  kModEq,       // pop b, a; push the kModTolerance `a % b = 0` test as 1.0/0.0
  kSelect,      // pop else_v, then_v, cond; push cond != 0 ? then_v : else_v
  kPushFalse,   // push 0.0 (a kCond guard that is not a comparison)
};

struct BcInst {
  BcOp op;
  std::uint16_t arg = 0;
};

struct Program {
  std::vector<BcInst> code;    // postfix order
  std::vector<double> consts;  // kPushConst pool
  std::size_t max_stack = 0;   // operand-stack high-water mark
  std::size_t hole_slots = 0;  // distinct holes (kPushHole args are < this)
};

// Number of hole-assignment lanes run_batch evaluates in lockstep. Eight
// doubles = one cache line of per-lane state; wide enough for the compiler
// to vectorize the elementwise opcode loops, small enough that a partially
// filled final batch wastes little work.
inline constexpr std::size_t kBatchLanes = 8;

// Value of a signal leaf (including macros) given a measurement snapshot.
double signal_value(Signal s, const cca::Signals& sig);

// Relative tolerance of the `a % b = 0` test: true iff a is within
// kModTolerance * b of a multiple of b. The band is what makes the test
// meaningful over continuous-valued signals (it lets a synthesized
// `cwnd % 2.7 = 0` produce the sporadic pulses of Figure 4).
inline constexpr double kModTolerance = 0.05;

// Lower an expression (holes allowed) to bytecode.
Program compile(const Expr& e);

// Evaluate `n_lanes` (<= kBatchLanes) assignments of the same program in
// lockstep. Signals broadcast across lanes except the window: lane L reads
// cwnd = lane_cwnd[L] (and the kRenoInc macro re-derives from it). Hole
// bindings are slot-major, one per slot and lane: holes[slot * n_lanes +
// lane] (may be empty when p.hole_slots == 0). out[L] receives lane L's
// value, which depends only on lane L's window and bindings.
void run_batch(const Program& p, const cca::Signals& sig,
               std::span<const double> lane_cwnd, std::span<const double> holes,
               std::size_t n_lanes, double* out);

}  // namespace abg::dsl
