// The three workloads. Every budget is fixed (iterations, samples, growth,
// caps, no timeout), so a run does the same search whatever the machine. The
// seed is the search seed; for reno-search it also draws the environment. The
// program sees only the generated traces.
#include <stdexcept>

#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using abg::trace::Environment;

// vegas-eval and sweep draw their environments once, from this constant: the
// evaluation cost of vegas-eval follows the traces' segment lengths, and the
// classifier's DSL pick in sweep flips with the trace (README.md).
constexpr std::uint64_t kFixedTraceSeed = 1;

Environment environment(abg::util::Rng& rng, double bw_lo, double bw_hi, double rtt_lo,
                        double rtt_hi, double loss_lo, double loss_hi) {
  Environment env;
  env.bandwidth_bps = rng.uniform(bw_lo, bw_hi);
  env.rtt_s = rng.uniform(rtt_lo, rtt_hi);
  env.random_loss = rng.uniform(loss_lo, loss_hi);
  env.seed = rng.next_u64();
  env.duration_s = 30.0;
  return env;
}

// A job's fixed search budget.
struct Budget {
  int samples;     // N of the first iteration; doubles per iteration
  int iterations;
  int depth;
  int nodes;
  int holes;
  std::size_t concretize;
  std::size_t points;  // DTW resampling length
};

abg::core::PipelineOptions search(std::uint64_t seed, const Budget& b) {
  abg::core::PipelineOptions p;
  auto& s = p.synth;
  s.seed = seed;
  s.initial_samples = b.samples;
  s.sample_growth = 2;
  s.max_iterations = b.iterations;
  s.max_depth = b.depth;
  s.max_nodes = b.nodes;
  s.max_holes = b.holes;
  s.concretize_budget = b.concretize;
  s.dopts.max_points = b.points;
  // The terminal phase finishes a lone surviving bucket up to this many
  // sketches; the default (4000) makes a run's cost hinge on which bucket
  // survives.
  s.exhaustive_cap = static_cast<std::size_t>(8 * b.samples);
  return p;
}

// Enumeration-bound: one reno job whose 128 operator buckets are mostly Z3
// work; evaluation per sketch is small.
Workload reno_search(std::uint64_t seed) {
  abg::util::Rng rng(seed ^ 0x7e405eedULL);
  Workload w{"reno-search", 3, 1, {}};
  JobPlan job;
  job.name = "reno";
  job.cca = "reno";
  job.envs.push_back(environment(rng, 10e6, 10e6, 0.040, 0.040, 0.005, 0.010));
  job.pipeline = search(seed, {.samples = 4, .iterations = 3, .depth = 4, .nodes = 9, .holes = 3,
                                    .concretize = 24, .points = 128});
  job.pipeline.dsl_override = "reno";
  w.jobs.push_back(std::move(job));
  return w;
}

// Evaluation-bound: a small vegas space scored on many long segments, so
// replay and DTW dominate.
Workload vegas_eval(std::uint64_t seed) {
  abg::util::Rng rng(kFixedTraceSeed ^ 0x7e9a5e7aULL);
  Workload w{"vegas-eval", 3, 1, {}};
  JobPlan job;
  job.name = "vegas";
  job.cca = "vegas";
  for (int i = 0; i < 4; ++i) {
    Environment env = environment(rng, 8e6, 12e6, 0.020, 0.060, 0.003, 0.006);
    env.cross_traffic_bps = 2e6;
    job.envs.push_back(env);
  }
  job.pipeline = search(seed, {.samples = 16, .iterations = 1, .depth = 3, .nodes = 7, .holes = 2,
                                    .concretize = 441, .points = 256});
  job.pipeline.dsl_override = "vegas";
  // Only segments at least as long as the DTW resampling length, so every
  // distance costs the same 256 x 256 cells whatever the loss pattern.
  job.pipeline.min_segment_samples = 256;
  job.pipeline.synth.initial_segments = 12;
  job.pipeline.synth.final_validation_segments = 40;
  w.jobs.push_back(std::move(job));
  return w;
}

// The Table-2 use: eight CCAs, one CSV trace each over the paper's testbed
// ranges, classified (no forced DSL), two jobs at a time on a shared cache.
Workload sweep(std::uint64_t seed) {
  abg::util::Rng rng(kFixedTraceSeed ^ 0x5eee9ULL);
  Workload w{"sweep", 2, 2, {}};
  for (const char* cca :
       {"reno", "cubic", "vegas", "bbr", "westwood", "htcp", "illinois", "scalable"}) {
    JobPlan job;
    job.name = cca;
    job.cca = cca;
    job.envs.push_back(environment(rng, 5e6, 15e6, 0.010, 0.100, 0.001, 0.010));
    job.submit_csv = true;
    job.pipeline = search(seed, {.samples = 4, .iterations = 3, .depth = 3, .nodes = 5, .holes = 2,
                                      .concretize = 24, .points = 128});
    w.jobs.push_back(std::move(job));
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "reno-search") return reno_search(seed);
  if (name == "vegas-eval") return vegas_eval(seed);
  if (name == "sweep") return sweep(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
