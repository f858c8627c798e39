// Quickstart: reverse-engineer TCP Reno end-to-end in ~a minute.
//
//   1. Collect packet traces of the unknown CCA in a few simulated network
//      environments (in a real deployment, these come from pcaps of a server
//      under test; here the built-in testbed plays that role).
//   2. Hand the traces to the Abagnale pipeline.
//   3. Read off the synthesized cwnd-on-ack handler expression.
//
// Build & run:  ./build/examples/quickstart [cca-name]
#include <cstdio>

#include "api/engine.hpp"
#include "net/simulator.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  using namespace abg;
  setvbuf(stdout, nullptr, _IONBF, 0);
  util::set_log_level(util::LogLevel::kInfo);  // watch the refinement loop

  const std::string cca = argc > 1 ? argv[1] : "reno";
  std::printf("== collecting traces for '%s' across the testbed sweep ==\n", cca.c_str());
  auto envs = net::default_environments(/*count=*/3, /*seed=*/42);
  for (auto& e : envs) e.duration_s = 15.0;
  auto traces = net::collect_traces(cca, envs);
  for (const auto& t : traces) {
    std::printf("  %-32s %6zu ACK samples\n", t.env.label().c_str(), t.samples.size());
  }

  std::printf("\n== running the Abagnale pipeline ==\n");
  api::JobSpec spec;
  // Keep the search small for a quickstart; see bench/ for paper-scale runs.
  spec.pipeline.synth.initial_samples = 8;
  spec.pipeline.synth.concretize_budget = 24;
  spec.pipeline.synth.max_depth = 3;
  spec.pipeline.synth.max_nodes = 7;
  spec.pipeline.synth.max_holes = 2;
  spec.pipeline.synth.timeout_s = 90.0;
  for (auto& t : traces) spec.add_trace(std::move(t));
  api::Engine engine;
  auto handle = engine.submit(std::move(spec));
  if (!handle.ok()) {
    std::fprintf(stderr, "bad job: %s\n", handle.status().to_string().c_str());
    return 1;
  }
  const core::PipelineResult& result = handle->wait().pipeline;

  std::printf("\n== result ==\n");
  std::printf("classifier label : %s\n", result.classification.label.c_str());
  std::printf("sub-DSL searched : %s\n", result.dsl_name.c_str());
  std::printf("trace segments   : %zu\n", result.segments_total);
  std::printf("handlers scored  : %zu\n", result.synthesis.total_handlers_scored);
  if (result.found()) {
    std::printf("\n  cwnd-on-ack handler:  %s\n", result.handler_string().c_str());
    std::printf("  DTW distance to traces: %.3f\n", result.distance());
  } else {
    std::printf("no handler found\n");
  }
  return result.found() ? 0 : 1;
}
