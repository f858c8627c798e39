// HandlerCca: run a synthesized expression as an *executable CCA*. This
// closes the reverse-engineering loop — after Abagnale recovers a handler
// from traces, wrapping it here lets the simulator answer the questions the
// paper motivates (§2.1): utilization, fairness against incumbents,
// burstiness. The ack handler is the synthesized cwnd-on-ack expression;
// the loss handler defaults to multiplicative halving or can be a second
// synthesized expression (synth::synthesize_loss_handler). Both handlers
// are compiled once, at construction, and stepped one lane at a time through
// the same bytecode interpreter the search scores candidates with.
#pragma once

#include <optional>

#include "cca/cca.hpp"
#include "dsl/bytecode.hpp"
#include "dsl/expr.hpp"

namespace abg::core {

class HandlerCca final : public cca::CcaInterface {
 public:
  // `ack_handler` must be hole-free. `loss_handler` may be null: the default
  // response is cwnd/2 (Reno-style), the common case for classically
  // designed CCAs.
  explicit HandlerCca(dsl::ExprPtr ack_handler, dsl::ExprPtr loss_handler = nullptr,
                      std::string name = "synthesized");

  std::string name() const override { return name_; }
  void init(double mss, double initial_cwnd) override;
  double on_ack(const cca::Signals& sig) override;
  double on_loss(const cca::Signals& sig) override;

 private:
  double step(const dsl::Program& handler, const cca::Signals& sig) const;
  double clamp(double next) const;

  dsl::Program ack_handler_;
  std::optional<dsl::Program> loss_handler_;
  std::string name_;
  double mss_ = 1448.0;
  double cwnd_ = 10 * 1448.0;
};

}  // namespace abg::core
