#include "core/handler_cca.hpp"

#include <stdexcept>

#include "synth/replay.hpp"

namespace abg::core {

namespace {

dsl::Program compile_hole_free(const dsl::Expr& handler) {
  if (dsl::hole_count(handler) > 0) {
    throw std::invalid_argument("HandlerCca handlers must be hole-free (fill_holes first)");
  }
  return dsl::compile(handler);
}

}  // namespace

HandlerCca::HandlerCca(dsl::ExprPtr ack_handler, dsl::ExprPtr loss_handler, std::string name)
    : name_(std::move(name)) {
  if (!ack_handler) throw std::invalid_argument("HandlerCca needs an ack handler");
  ack_handler_ = compile_hole_free(*ack_handler);
  if (loss_handler) loss_handler_ = compile_hole_free(*loss_handler);
}

void HandlerCca::init(double mss, double initial_cwnd) {
  mss_ = mss;
  cwnd_ = initial_cwnd;
}

double HandlerCca::step(const dsl::Program& handler, const cca::Signals& sig) const {
  // The handler drives its own window state: lane 0's cwnd is cwnd_.
  double next = 0.0;
  dsl::run_batch(handler, sig, {&cwnd_, 1}, {}, 1, &next);
  return next;
}

double HandlerCca::clamp(double next) const {
  // Hold on numeric trouble, but count it: a synthesized handler that
  // routinely produces NaN/inf is suspect even though the hold masks it.
  return synth::next_cwnd(cwnd_, next, 2.0 * mss_, 1e7 * mss_);
}

double HandlerCca::on_ack(const cca::Signals& sig) {
  cwnd_ = clamp(step(ack_handler_, sig));
  return cwnd_;
}

double HandlerCca::on_loss(const cca::Signals& sig) {
  cwnd_ = clamp(loss_handler_ ? step(*loss_handler_, sig) : cwnd_ / 2.0);
  return cwnd_;
}

}  // namespace abg::core
