// abg_perfbench: the end-to-end benchmark program.
//
//   abg_perfbench --workload <reno-search|vegas-eval|sweep> --seed <n>
//                 --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 repeats the workload's closed batch for about --seconds and
// reports the end-to-end metrics as medians over the repetitions. --trace 1
// runs an untraced, a traced and another untraced batch, then the per-layer
// probes, and reports the per-layer metrics. Every run re-checks each job's answer; the
// last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed check sets "correct" to false and is explained on stderr; the exit
// code is non-zero only when no result could be produced.
#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench.hpp"
#include "obs/trace_events.hpp"
#include "util/json_parse.hpp"
#include "util/log.hpp"

namespace pb = perfbench;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Set-up is timed at least this many times per untraced run (batches
// included), and alone until this much set-up time has been spent.
constexpr std::size_t kSetupSamples = 5;
constexpr double kSetupSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/perfbench-out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out = val;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload || argc % 2 == 0) {
    throw std::invalid_argument(
        "usage: abg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return kInf;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? kInf : *std::max_element(v.begin(), v.end());
}

// Shortest round-trip decimal form; non-finite values become null.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
  bool in_result = true;  // false: printed in the table only
};

// Job-level quality of one batch, from the checks.
struct Quality {
  std::vector<pb::JobCheck> checks;
  std::vector<std::string> errors;
  double winner_distance = 0.0;
  double recovered_share = 0.0;
  double failed_share = 0.0;
  std::size_t failed_jobs = 0;
};

Quality assess(const pb::Workload& w, const std::vector<pb::PreparedJob>& inputs,
               const pb::BatchResult& r) {
  Quality q;
  std::size_t recovered = 0;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const auto& result = r.jobs[i].result;
    if (!result.ok()) ++q.failed_jobs;
    q.checks.push_back(pb::check_job(w.jobs[i], inputs[i], result));
    const auto& c = q.checks.back();
    if (!c.error.empty()) {
      q.errors.push_back(c.error);
      continue;
    }
    q.winner_distance += c.distance;
    recovered += c.recovered ? 1 : 0;
  }
  q.recovered_share = static_cast<double>(recovered) / static_cast<double>(w.jobs.size());
  q.failed_share = static_cast<double>(q.failed_jobs + r.rejected) /
                   static_cast<double>(w.jobs.size() + r.traces);
  return q;
}

// Winner string and distance must not change between batches of one run.
void compare_winners(const Quality& first, const Quality& other, std::vector<std::string>* errors) {
  for (std::size_t i = 0; i < first.checks.size() && i < other.checks.size(); ++i) {
    const auto& a = first.checks[i];
    const auto& b = other.checks[i];
    if (a.winner != b.winner ||
        std::bit_cast<std::uint64_t>(a.distance) != std::bit_cast<std::uint64_t>(b.distance)) {
      errors->push_back("job " + std::to_string(i) + " winner changed between batches: " +
                        a.winner + " (" + num(a.distance) + ") vs " + b.winner + " (" +
                        num(b.distance) + ")");
    }
  }
}

std::vector<double> latencies(const pb::BatchResult& r) {
  std::vector<double> v;
  for (const auto& j : r.jobs) v.push_back(j.result.ok() ? j.latency_s : kInf);
  return v;
}

// Work-counter audit: a counter is exact when every batch of the run
// produced the same delta. Prints one line per counter; returns the number of
// exact and varying counters.
std::pair<double, double> counter_audit(const std::vector<const pb::BatchResult*>& reps) {
  std::printf("counter audit over %zu batches:\n", reps.size());
  double exact = 0.0, varying = 0.0;
  for (const auto& [name, v0] : reps.front()->counters) {
    std::uint64_t lo = v0, hi = v0;
    for (const auto* r : reps) {
      const auto it = r->counters.find(name);
      const std::uint64_t v = it == r->counters.end() ? 0 : it->second;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (lo == hi) {
      exact += 1.0;
      std::printf("  %-36s exact    %llu\n", name.c_str(), static_cast<unsigned long long>(lo));
    } else {
      varying += 1.0;
      std::printf("  %-36s varying  %llu..%llu (spread %.3g%%)\n", name.c_str(),
                  static_cast<unsigned long long>(lo), static_cast<unsigned long long>(hi),
                  100.0 * static_cast<double>(hi - lo) / static_cast<double>(hi));
    }
  }
  return {exact, varying};
}

void print_jobs(const Quality& q) {
  for (const auto& c : q.checks) {
    if (!c.error.empty()) continue;
    std::printf("  job dsl=%-7s d=%-12.6g expert=%-12.6g recovered=%d validation=%zu  %s\n",
                c.dsl.c_str(), c.distance, c.expert, c.recovered ? 1 : 0, c.validation_segments,
                c.winner.c_str());
  }
}

// Sum of the durations (seconds) of the program's own Perfetto spans with
// this name, as recorded while obs tracing was armed.
double obs_span_total_s(const std::string& name) {
  auto parsed = abg::util::parse_json(abg::obs::trace_events_json());
  if (!parsed.ok()) return 0.0;
  const auto* events = parsed->find("traceEvents");
  double us = 0.0;
  if (events == nullptr) return 0.0;
  for (const auto& e : events->items()) {
    const auto* n = e.find("name");
    const auto* d = e.find("dur");
    if (n != nullptr && d != nullptr && n->as_string() == name) us += d->as_double();
  }
  return us * 1e-6;
}

void emit(const std::vector<Metric>& metrics, bool correct, std::size_t attempted,
          std::size_t failed, const std::vector<std::string>& errors) {
  for (const auto& e : errors) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  std::vector<const Metric*> result;
  for (const auto& m : metrics) {
    std::printf("%-32s %24s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
    if (m.in_result) result.push_back(&m);
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + result[i]->name + "\": {\"value\": " + num(result[i]->value) +
            ", \"unit\": \"" + result[i]->unit + "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void run_untraced(const Args& a, const pb::Workload& w, const std::string& dir) {
  std::vector<pb::BatchResult> reps;
  std::vector<Quality> quality;
  std::vector<std::string> errors;
  // At least two batches, so every run also checks that answers repeat;
  // more while another one still fits in --seconds.
  const auto start = pb::Clock::now();
  double last = 0.0;
  while (reps.size() < 2 || pb::seconds_between(start, pb::Clock::now()) + last <= a.seconds) {
    const auto t0 = pb::Clock::now();
    std::vector<pb::PreparedJob> inputs;
    reps.push_back(pb::run_batch(w, dir, nullptr, &inputs));
    quality.push_back(assess(w, inputs, reps.back()));
    last = pb::seconds_between(t0, pb::Clock::now());
  }

  std::vector<double> setup, wall, p50, pmax;
  // Set-up is short next to a batch; repeat it alone so its median has
  // enough samples.
  double setup_spent = 0.0;
  for (const auto& r : reps) setup_spent += r.setup_s;
  while (setup.size() + reps.size() < kSetupSamples || setup_spent < kSetupSeconds) {
    setup.push_back(pb::set_up(w, dir, nullptr).seconds);
    setup_spent += setup.back();
  }
  std::size_t attempted = 0, failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const auto& r = reps[i];
    setup.push_back(r.setup_s);
    wall.push_back(r.wall_s);
    p50.push_back(median(latencies(r)));
    pmax.push_back(max_of(latencies(r)));
    attempted += r.jobs.size();
    failed += quality[i].failed_jobs;
    errors.insert(errors.end(), quality[i].errors.begin(), quality[i].errors.end());
    if (i > 0) compare_winners(quality[0], quality[i], &errors);
    std::printf("batch %zu: setup %.3f s, wall %.3f s, cpu %.3f s, jobs", i, r.setup_s, r.wall_s,
                r.cpu_s);
    // Per job: name, searched DSL, latency and the seconds of each iteration.
    for (const auto& j : r.jobs) {
      std::printf(" %s:%s:%.2f[", j.result.name.c_str(), j.result.pipeline.dsl_name.c_str(),
                  j.latency_s);
      const char* sep = "";
      for (const auto& it : j.result.pipeline.synthesis.iterations) {
        std::printf("%s%.2f", sep, it.seconds);
        sep = " ";
      }
      std::printf("]");
    }
    std::printf("\n");
  }
  print_jobs(quality[0]);
  std::vector<const pb::BatchResult*> batches;
  for (const auto& r : reps) batches.push_back(&r);
  counter_audit(batches);
  const Quality& q = quality[0];
  const std::vector<Metric> metrics = {
      {"setup_s", "s", median(setup)},
      {"wall_s", "s", median(wall)},
      {"job_s_p50", "s", median(p50)},
      {"job_s_max", "s", median(pmax)},
      {"peak_rss_mb", "MB", pb::peak_rss_mb()},
      // Answer quality depends on the seed's traces, so it is printed here
      // and reported by the traced run rather than bounded (README.md).
      {"winner_distance", "dtw", q.winner_distance, false},
      {"recovered_share", "ratio", q.recovered_share, false},
      {"failed_share", "ratio", q.failed_share, false},
  };
  emit(metrics, errors.empty() && failed == 0, attempted, failed, errors);
}

void run_traced(const Args& a, const pb::Workload& w, const std::string& dir) {
  // Untraced batches on both sides of the traced one: their mean is the
  // baseline of the tracing overhead, so drift and first-batch warm-up cancel.
  std::vector<pb::PreparedJob> inputs;
  const pb::BatchResult before = pb::run_batch(w, dir, nullptr, &inputs);
  const Quality q_before = assess(w, inputs, before);

  pb::SpanLog log;
  abg::obs::clear_trace_events();
  abg::obs::set_tracing_enabled(true);
  const pb::BatchResult traced = pb::run_batch(w, dir, &log, &inputs);
  abg::obs::set_tracing_enabled(false);
  const Quality q = assess(w, inputs, traced);

  std::vector<pb::PreparedJob> after_inputs;
  const pb::BatchResult after = pb::run_batch(w, dir, nullptr, &after_inputs);
  const Quality q_after = assess(w, after_inputs, after);

  std::vector<std::string> errors;
  for (const Quality* x : {&q_before, &q, &q_after}) {
    errors.insert(errors.end(), x->errors.begin(), x->errors.end());
  }
  compare_winners(q_before, q, &errors);
  compare_winners(q_before, q_after, &errors);
  print_jobs(q);

  pb::Metrics m = pb::probe_layers(w, inputs, log);
  const auto counter = [&](const char* name) {
    const auto it = traced.counters.find(name);
    return it == traced.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  m["net.collect_s"] = traced.collect_s;
  m["net.samples_per_s"] = static_cast<double>(traced.samples) / traced.collect_s;
  m["net.traces_rejected"] = static_cast<double>(traced.rejected);

  // Refinement accounting from the job results.
  std::vector<double> iter_s(3, 0.0);
  double job_s = 0.0, last_iter = 0.0, tracked = 0.0, handlers = 0.0, hits = 0.0, probes = 0.0;
  double queue_wait = 0.0;
  for (const auto& j : traced.jobs) {
    const auto& syn = j.result.pipeline.synthesis;
    job_s += j.result.seconds;
    for (std::size_t i = 0; i < syn.iterations.size(); ++i) {
      if (i < iter_s.size()) iter_s[i] += syn.iterations[i].seconds;
      tracked += syn.iterations[i].seconds;
    }
    if (!syn.iterations.empty()) last_iter += syn.iterations.back().seconds;
    handlers += static_cast<double>(syn.total_handlers_scored);
    hits += static_cast<double>(j.result.cache_hits);
    probes += static_cast<double>(j.result.cache_hits + j.result.cache_misses);
    queue_wait = std::max(queue_wait, j.latency_s - j.result.seconds);
  }
  for (std::size_t i = 0; i < iter_s.size(); ++i) {
    m["synth.iteration" + std::to_string(i) + "_s"] = iter_s[i];
  }
  m["synth.last_iteration_share"] = last_iter / job_s;
  m["synth.untracked_s"] = job_s - tracked;
  m["synth.validation_s"] = obs_span_total_s("synth.validation");
  m["synth.unattributed_s"] = m["synth.untracked_s"] - m["synth.validation_s"];
  m["synth.handlers_scored"] = handlers;
  m["synth.cache_hit_share"] = probes > 0 ? hits / probes : 0.0;
  m["pool.cpu_util"] =
      traced.cpu_s / (traced.wall_s * static_cast<double>(w.pool_threads + w.drivers));
  m["api.queue_wait_s"] = queue_wait;
  m["obs.trace_overhead_share"] = traced.wall_s / (0.5 * (before.wall_s + after.wall_s)) - 1.0;
  m["obs.series_overflow"] = counter("obs.series_overflow");
  m["distance.dtw_cells"] = counter("distance.dtw_cells");
  m["synth.solver_models"] = counter("synth.solver_models");
  m["synth.sketches_emitted"] = counter("synth.sketches_emitted");
  const auto [exact, varying] = counter_audit({&before, &traced, &after});
  m["audit.exact_counters"] = exact;
  m["audit.varying_counters"] = varying;
  const double evals = counter("distance.evals");
  m["distance.prune_share"] =
      evals > 0 ? (counter("distance.lb_prunes") + counter("distance.lb_keogh_prunes") +
                   counter("distance.early_abandons")) /
                      evals
                : 0.0;
  m["winner_distance"] = q.winner_distance;
  m["recovered_share"] = q.recovered_share;
  m["failed_share"] = q.failed_share;

  const std::string stem = dir + "/" + w.name + "-seed" + std::to_string(a.seed);
  log.write_json(stem + ".spans.json");
  abg::obs::write_trace_json(stem + ".perfetto.json");

  std::vector<Metric> metrics;
  for (const auto& [name, value] : m) metrics.push_back({name, pb::metric_unit(name), value});
  const std::size_t failed = q_before.failed_jobs + q.failed_jobs + q_after.failed_jobs;
  emit(metrics, errors.empty() && failed == 0, 3 * w.jobs.size(), failed, errors);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (!abg::util::log_level_from_env()) abg::util::set_log_level(abg::util::LogLevel::kError);
    const pb::Workload w = pb::make_workload(a.workload, a.seed);
    const std::string dir =
        a.out + "/" + w.name + "-" + std::to_string(a.seed) + "-" + std::to_string(getpid());
    std::filesystem::create_directories(dir);
    if (a.trace) {
      run_traced(a, w, dir);
      // Keep the span files; the trace CSVs are throwaway.
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".csv") std::filesystem::remove(entry.path());
      }
    } else {
      run_untraced(a, w, dir);
      std::filesystem::remove_all(dir);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abg_perfbench: %s\n", e.what());
    return 2;
  }
}
