#include "synth/event_replay.hpp"

#include <limits>

#include "dsl/bytecode.hpp"
#include "synth/concretize.hpp"
#include "synth/enumerator.hpp"
#include "util/fault_injection.hpp"

namespace abg::synth {

namespace {

// A handler compiled for one-lane stepping; any residual hole reads 1.0.
struct OneLane {
  dsl::Program prog;
  std::vector<double> holes;

  explicit OneLane(const dsl::Expr& handler)
      : prog(dsl::compile(handler)), holes(prog.hole_slots, 1.0) {}

  double run(const cca::Signals& sig, double cwnd) const {
    double next = 0.0;
    dsl::run_batch(prog, sig, {&cwnd, 1}, holes, 1, &next);
    return next;
  }
};

}  // namespace

std::vector<double> replay_trace(const dsl::Expr& ack_handler, const dsl::Expr& loss_handler,
                                 const trace::Trace& t, const ReplayOptions& opts) {
  std::vector<double> out;
  out.reserve(t.samples.size());
  if (t.samples.empty()) return out;

  const OneLane ack(ack_handler);
  const OneLane loss(loss_handler);
  const ReplayStart start = replay_start(t.samples.front(), opts);
  double cwnd = start.cwnd;
  auto step = [&](const OneLane& handler, const trace::AckSample& sample) {
    double next = handler.run(sample.sig, cwnd);
    util::fault::corrupt(&next, "replay.handler_output");
    cwnd = next_cwnd(cwnd, next, start.lo, start.hi);
  };
  for (const auto& sample : t.samples) {
    if (sample.loss_event) {
      step(loss, sample);
    } else if (!sample.is_dup && sample.sig.acked_bytes > 0) {
      step(ack, sample);
    }
    out.push_back(cwnd / start.mss);
  }
  return out;
}

double trace_distance(const dsl::Expr& ack_handler, const dsl::Expr& loss_handler,
                      const trace::Trace& t, distance::Metric metric,
                      const distance::DistanceOptions& dopts) {
  return distance::compute(metric, replay_trace(ack_handler, loss_handler, t),
                           observed_series_pkts(t.samples), dopts);
}

LossSynthesisResult synthesize_loss_handler(const dsl::Dsl& dsl, const dsl::Expr& ack_handler,
                                            const std::vector<trace::Trace>& traces,
                                            const LossSynthesisOptions& opts) {
  LossSynthesisResult result;
  result.distance = std::numeric_limits<double>::infinity();

  EnumeratorOptions eopts;
  eopts.unit_check = opts.unit_check;
  eopts.max_depth = opts.max_depth;
  eopts.max_nodes = opts.max_nodes;
  eopts.max_holes = opts.max_holes;
  SketchEnumerator enumerator(dsl, eopts);

  util::Rng rng(opts.seed);
  ConcretizeOptions copts;
  copts.budget = opts.concretize_budget;

  while (result.sketches_tried < opts.max_sketches) {
    auto sketch = enumerator.next();
    if (!sketch) {
      result.status = enumerator.status();
      break;
    }
    ++result.sketches_tried;
    for (const auto& assign : enumerate_assignments(**sketch, dsl.constant_pool, copts, rng)) {
      const auto handler = dsl::fill_holes(*sketch, assign);
      ++result.handlers_tried;
      double d = 0.0;
      for (const auto& t : traces) {
        d += trace_distance(ack_handler, *handler, t, opts.metric, opts.dopts);
      }
      if (d < result.distance) {
        result.distance = d;
        result.handler = handler;
      }
    }
  }
  return result;
}

}  // namespace abg::synth
