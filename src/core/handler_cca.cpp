#include "core/handler_cca.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsl/eval.hpp"
#include "obs/registry.hpp"
#include "synth/replay.hpp"

namespace abg::core {

HandlerCca::HandlerCca(dsl::ExprPtr ack_handler, dsl::ExprPtr loss_handler, std::string name)
    : ack_handler_(std::move(ack_handler)),
      loss_handler_(std::move(loss_handler)),
      name_(std::move(name)) {
  if (!ack_handler_) throw std::invalid_argument("HandlerCca needs an ack handler");
  if (dsl::hole_count(*ack_handler_) > 0 ||
      (loss_handler_ && dsl::hole_count(*loss_handler_) > 0)) {
    throw std::invalid_argument("HandlerCca handlers must be hole-free (fill_holes first)");
  }
}

void HandlerCca::init(double mss, double initial_cwnd) {
  mss_ = mss;
  cwnd_ = initial_cwnd;
}

double HandlerCca::clamp(double next) const {
  if (!std::isfinite(next)) {
    // Hold on numeric trouble, but count it: a synthesized handler that
    // routinely produces NaN/inf is suspect even though the hold masks it.
    synth::nonfinite_cwnd_counter().add();
    return cwnd_;
  }
  return std::clamp(next, 2.0 * mss_, 1e7 * mss_);
}

double HandlerCca::on_ack(const cca::Signals& sig) {
  cca::Signals s = sig;
  s.cwnd = cwnd_;  // the handler drives its own window state
  cwnd_ = clamp(dsl::eval(*ack_handler_, s));
  return cwnd_;
}

double HandlerCca::on_loss(const cca::Signals& sig) {
  if (loss_handler_) {
    cca::Signals s = sig;
    s.cwnd = cwnd_;
    cwnd_ = clamp(dsl::eval(*loss_handler_, s));
  } else {
    cwnd_ = clamp(cwnd_ / 2.0);
  }
  return cwnd_;
}

}  // namespace abg::core
