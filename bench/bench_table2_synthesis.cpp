// Table 2: for every CCA, run the Abagnale pipeline over its traces and
// print the synthesized cwnd-ack handler with its summed DTW distance,
// alongside the domain expert's fine-tuned handler and its distance on the
// same segments. Distances are comparable within a row only (§5.1).
#include "bench_common.hpp"

#include "api/engine.hpp"
#include "util/stopwatch.hpp"

using namespace abg;

int main() {
  setvbuf(stdout, nullptr, _IONBF, 0);
  bench::banner("Table 2 — synthesized vs fine-tuned cwnd-ack handlers");
  std::printf("%-10s | %-52s %9s | %-38s %9s\n", "CCA", "synthesized handler", "DTW",
              "fine-tuned handler", "DTW");
  bench::rule();

  const double per_cca_timeout = bench::full_scale() ? 3600.0 : 40.0;
  api::Engine engine({.max_concurrent_jobs = 1});
  std::vector<std::string> rows = cca::kernel_cca_names();
  for (const auto& s : cca::student_cca_names()) rows.push_back(s);

  for (const auto& name : rows) {
    if (!bench::row_selected(name)) continue;
    const auto& known = dsl::known_handlers(name);
    if (!known.expected_synthesized && !known.fine_tuned) {
      // CDG (non-determinism) and HighSpeed (out-of-DSL log ops) are not run
      // through the synthesizer (§5.5); BIC runs but its handler is too deep.
      if (name == "cdg" || name == "highspeed") {
        std::printf("%-10s | %-52s %9s | %-38s %9s\n", name.c_str(),
                    "(not run: out of DSL scope, see §5.5)", "-", "-", "-");
        continue;
      }
    }
    auto traces = bench::collect(name, /*seed=*/101);
    auto segs = bench::segments_for(traces);
    if (segs.empty()) {
      std::printf("%-10s | %-52s %9s | %-38s %9s\n", name.c_str(), "(no segments)", "-", "-",
                  "-");
      continue;
    }

    auto opts = bench::synth_opts(per_cca_timeout);
    if (name == "cubic") opts.unit_check = false;  // §5.5: cube-root units
    api::JobSpec spec;
    spec.with_synthesis_options(opts).with_dsl(known.dsl_hint);
    for (const auto& t : traces) spec.add_trace(t);
    auto handle = engine.submit(std::move(spec));
    if (!handle.ok()) {
      std::printf("%-10s | %-52s\n", name.c_str(), handle.status().to_string().c_str());
      continue;
    }
    const core::PipelineResult& result = handle->wait().pipeline;

    const std::string synth_str =
        result.found() ? dsl::to_string(*result.synthesis.best.handler) : "<none>";
    const double synth_d =
        result.found() ? bench::handler_distance(*result.synthesis.best.handler, segs) : -1;
    std::string ft_str = "-";
    double ft_d = -1;
    if (known.fine_tuned) {
      ft_str = dsl::to_string(*known.fine_tuned);
      ft_d = bench::handler_distance(*known.fine_tuned, segs);
    }
    std::printf("%-10s | %-52.52s %9.2f | %-38.38s %9.2f\n", name.c_str(), synth_str.c_str(),
                synth_d, ft_str.c_str(), ft_d);
  }
  bench::rule();
  std::printf("Distances are sums of per-segment DTW over each CCA's own segment pool;\n"
              "compare within a row, not across rows (§5.1).\n");
  return 0;
}
