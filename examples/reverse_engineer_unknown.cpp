// Scenario: a proprietary CCA in the wild (§2.1). A "student" CCA stands in
// for the unknown algorithm. The example follows the paper's workflow:
//
//   1. Classify the traces against the kernel CCA reference bank — for a
//      novel algorithm this comes back Unknown, with closest-CCA hints.
//   2. Use the hints to pick a sub-DSL (§3.3).
//   3. Synthesize an approximate handler and inspect what signals and
//      structure the unknown CCA appears to use (§8: "the results ...
//      reliably give insights into the signals and structure a target CCA
//      uses").
//
// Build & run:  ./build/examples/reverse_engineer_unknown [student1..student7]
#include <cstdio>

#include "api/engine.hpp"
#include "classify/classifier.hpp"
#include "core/abagnale.hpp"
#include "net/simulator.hpp"
#include "util/retry.hpp"

int main(int argc, char** argv) {
  using namespace abg;
  setvbuf(stdout, nullptr, _IONBF, 0);
  const std::string unknown = argc > 1 ? argv[1] : "student2";

  // --- 1. Measure the unknown service under varied conditions. ------------
  // Measurement can come up empty on a degenerate draw; each retry runs the
  // whole collection again with fresh seeds before giving up.
  std::vector<trace::Trace> traces;
  std::vector<trace::Environment> envs;
  std::uint64_t seed = 77;
  util::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_s = 0.0;  // re-simulation is instant; no need to wait
  policy.retryable = {util::StatusCode::kInvalidTrace};
  const util::Status st = util::Retry(policy).run([&] {
    envs = net::default_environments(3, seed++);
    for (auto& e : envs) e.duration_s = 15.0;
    traces = net::collect_traces(unknown, envs);
    for (const auto& t : traces) {
      if (!t.samples.empty()) return util::Status::ok();
    }
    return util::Status(util::StatusCode::kInvalidTrace,
                        "collection produced no samples");
  });
  if (!st.is_ok()) {
    std::fprintf(stderr, "%s; giving up\n", st.to_string().c_str());
    return 1;
  }
  std::printf("collected %zu connections from the unknown CCA\n", traces.size());

  // --- 2. Classify. ---------------------------------------------------------
  classify::ClassifierOptions copts;
  copts.environments = envs;
  copts.unknown_threshold = 20.0;  // strict: novel CCAs should not match
  classify::Classifier classifier(copts);
  auto cls = classifier.classify(traces);
  std::printf("classifier: %s\n", cls.label.c_str());
  if (!cls.closest.empty()) {
    std::printf("closest known CCAs: %s, %s\n", cls.closest[0].c_str(),
                cls.closest.size() > 1 ? cls.closest[1].c_str() : "-");
  }
  const std::string dsl_name = core::dsl_for_classification(cls);
  std::printf("selected sub-DSL: %s\n\n", dsl_name.c_str());

  // --- 3. Synthesize. -------------------------------------------------------
  api::JobSpec spec;
  spec.with_dsl(dsl_name);
  spec.pipeline.synth.initial_samples = 8;
  spec.pipeline.synth.concretize_budget = 24;
  spec.pipeline.synth.max_depth = 4;
  spec.pipeline.synth.max_nodes = 9;
  spec.pipeline.synth.max_holes = 3;
  spec.pipeline.synth.dopts.max_points = 128;
  spec.pipeline.synth.timeout_s = 120.0;
  for (const auto& t : traces) spec.add_trace(t);
  api::Engine engine;
  auto handle = engine.submit(std::move(spec));
  if (!handle.ok()) {
    std::fprintf(stderr, "bad job: %s\n", handle.status().to_string().c_str());
    return 1;
  }
  const core::PipelineResult& result = handle->wait().pipeline;

  if (!result.found()) {
    std::printf("no handler found%s\n",
                result.synthesis.status.is_ok()
                    ? ""
                    : (": " + result.synthesis.status.to_string()).c_str());
    return 1;
  }
  if (result.synthesis.partial) {
    std::printf("(search preempted: %s — reporting best-so-far)\n",
                result.synthesis.status.to_string().c_str());
  }
  std::printf("synthesized handler: %s\n", result.handler_string().c_str());
  std::printf("distance: %.2f over %zu segments\n\n", result.distance(),
              result.segments_total);

  // What did we learn about the unknown CCA?
  const auto& handler = *result.synthesis.best.handler;
  std::printf("signals the unknown CCA appears to react to:");
  for (auto s : dsl::signals_used(handler)) std::printf(" %s", dsl::signal_name(s));
  std::printf("\noperators in its update rule:");
  for (auto o : dsl::ops_used(handler)) std::printf(" %s", dsl::op_name(o));
  std::printf("\n");
  return 0;
}
