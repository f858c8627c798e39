// Set-up, one measured batch, and the correctness checks of a job's answer.
#include <malloc.h>
#include <sys/resource.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "distance/distance.hpp"
#include "dsl/dsl.hpp"
#include "dsl/known_handlers.hpp"
#include "net/simulator.hpp"
#include "obs/registry.hpp"
#include "synth/replay.hpp"
#include "trace/sampler.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

// --- Span log ---------------------------------------------------------------

namespace {
thread_local long t_current_span = -1;
}  // namespace

std::size_t SpanLog::open(std::string name) {
  const double now = seconds_between(epoch_, Clock::now());
  std::lock_guard lk(mu_);
  records_.push_back({std::move(name), now, now, t_current_span});
  return records_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  const double now = seconds_between(epoch_, Clock::now());
  std::lock_guard lk(mu_);
  records_[index].end_s = now;
}

double SpanLog::total_s(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::lock_guard lk(mu_);
  std::vector<double> out;
  for (const auto& r : records_) {
    if (r.name == name) out.push_back(r.end_s - r.start_s);
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::lock_guard lk(mu_);
  std::ofstream f(path);
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%ld},\"name\":",
                  r.start_s * 1e6, (r.end_s - r.start_s) * 1e6, i, r.parent);
    f << (i ? "," : "") << buf << '"' << r.name << "\"}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

SpanScope::SpanScope(SpanLog* log, std::string name) : log_(log) {
  if (log_ == nullptr) return;
  index_ = log_->open(std::move(name));
  saved_parent_ = t_current_span;
  t_current_span = static_cast<long>(index_);
}

SpanScope::~SpanScope() {
  if (log_ == nullptr) return;
  log_->close(index_);
  t_current_span = saved_parent_;
}

// --- Set-up and one batch ----------------------------------------------------

Setup set_up(const Workload& w, const std::string& work_dir, SpanLog* log) {
  SpanScope span(log, "setup");
  const auto t0 = Clock::now();
  Setup s;
  for (const auto& plan : w.jobs) {
    PreparedJob job;
    std::vector<abg::trace::Trace> generated;
    {
      SpanScope sp(log, "net.collect_traces");
      const auto c0 = Clock::now();
      generated = abg::net::collect_traces(plan.cca, plan.envs);
      s.collect_s += seconds_between(c0, Clock::now());
    }
    std::vector<abg::trace::Trace> from_csv;
    std::vector<abg::trace::Trace> in_memory;
    for (std::size_t k = 0; k < generated.size(); ++k) {
      const std::string path = work_dir + "/" + plan.name + "-" + std::to_string(k) + ".csv";
      {
        SpanScope sp(log, "trace.save_csv");
        if (auto st = abg::trace::save_csv(generated[k], path); !st.is_ok()) {
          throw std::runtime_error("save_csv " + path + ": " + st.to_string());
        }
      }
      SpanScope sp(log, "trace.load_csv");
      auto back = abg::trace::load_csv(path);
      ++s.traces;
      job.samples += generated[k].size();
      if (!back.ok()) {
        // The strict loader refused what the simulator wrote. Counted, and
        // the job gets the in-memory trace so its search is unchanged.
        ++job.rejected;
        static std::set<std::string> reported;  // set-up repeats; say it once
        const std::string why = back.status().to_string();
        if (reported.insert(why).second) {
          std::fprintf(stderr, "perfbench: %s trace %zu rejected on CSV ingest: %s\n",
                       plan.name.c_str(), k, why.c_str());
        }
        in_memory.push_back(std::move(generated[k]));
      } else if (plan.submit_csv) {
        job.csv_paths.push_back(path);
        from_csv.push_back(std::move(*back));
      } else {
        in_memory.push_back(std::move(generated[k]));
      }
    }
    // The Engine combines CSV traces first, then in-memory ones.
    job.traces = std::move(from_csv);
    for (auto& t : in_memory) job.traces.push_back(std::move(t));
    s.rejected += job.rejected;
    s.samples += job.samples;
    s.jobs.push_back(std::move(job));
  }
  {
    SpanScope sp(log, "api.Engine");
    s.engine = std::make_unique<abg::api::Engine>(
        abg::api::EngineOptions{.threads = w.pool_threads, .max_concurrent_jobs = w.drivers});
  }
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

namespace {

std::map<std::string, std::uint64_t> counter_values() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : abg::obs::snapshot().counters) {
    if (c.labels.empty()) out[c.name] = c.value;
  }
  return out;
}

}  // namespace

BatchResult run_batch(const Workload& w, const std::string& work_dir, SpanLog* log,
                      std::vector<PreparedJob>* prepared) {
  BatchResult out;
  const auto before = counter_values();
  Setup s = set_up(w, work_dir, log);
  out.setup_s = s.seconds;
  out.collect_s = s.collect_s;
  out.traces = s.traces;
  out.rejected = s.rejected;
  out.samples = s.samples;

  std::vector<abg::api::JobSpec> specs;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const JobPlan& plan = w.jobs[i];
    abg::api::JobSpec spec;
    spec.name = plan.name;
    spec.pipeline = plan.pipeline;
    spec.trace_paths = s.jobs[i].csv_paths;
    for (std::size_t k = spec.trace_paths.size(); k < s.jobs[i].traces.size(); ++k) {
      spec.traces.push_back(s.jobs[i].traces[k]);
    }
    specs.push_back(std::move(spec));
  }

  const std::size_t n = specs.size();
  std::vector<abg::api::JobHandle> handles;
  std::vector<Clock::time_point> submitted(n), returned(n);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  {
    SpanScope batch(log, "api.batch");
    for (std::size_t i = 0; i < n; ++i) {
      SpanScope sp(log, "api.submit");
      submitted[i] = Clock::now();
      auto h = s.engine->submit(std::move(specs[i]));
      if (!h.ok()) throw std::runtime_error("submit: " + h.status().to_string());
      handles.push_back(*h);
    }
    // One waiter per job, so each latency ends when its own wait() returns.
    std::vector<std::thread> waiters;
    for (std::size_t i = 0; i < n; ++i) {
      waiters.emplace_back([&, i] {
        SpanScope sp(log, "api.wait");
        handles[i].wait();
        returned[i] = Clock::now();
      });
    }
    for (auto& t : waiters) t.join();
    SpanScope sp(log, "api.~Engine");
    s.engine.reset();
  }
  out.wall_s = seconds_between(t0, Clock::now());
  out.cpu_s = process_cpu_s() - cpu0;
  for (std::size_t i = 0; i < n; ++i) {
    out.jobs.push_back({handles[i].wait(), seconds_between(submitted[i], returned[i])});
  }
  for (const auto& [name, value] : counter_values()) {
    const auto it = before.find(name);
    out.counters[name] = value - (it == before.end() ? 0 : it->second);
  }
  if (prepared != nullptr) *prepared = std::move(s.jobs);
  // Hand freed heap back to the OS, so each batch's peak RSS starts from the
  // same floor however many batches ran before it.
  malloc_trim(0);
  return out;
}

// --- Checks -------------------------------------------------------------------

std::vector<abg::trace::Segment> job_segments(const JobPlan& plan,
                                              const std::vector<abg::trace::Trace>& traces) {
  std::vector<abg::trace::Trace> steady;
  for (const auto& t : traces) {
    steady.push_back(abg::trace::trim_warmup(t, plan.pipeline.warmup_s));
  }
  return abg::trace::segment_all(steady, plan.pipeline.min_segment_samples,
                                 plan.pipeline.skip_first_segment);
}

// The refinement loop grows one diversity sampler, seeded from the search
// seed, in (random, farthest) pairs: to the initial working-set size, by two
// per iteration, then to the validation size. Growing it straight to `count`
// gives the same picks whenever every intermediate size is even, which the
// workloads keep (see check_job).
std::vector<abg::trace::Segment> select_segments(const std::vector<abg::trace::Segment>& pool,
                                                 const abg::synth::SynthesisOptions& opts,
                                                 std::size_t count) {
  const auto dopts = opts.dopts;
  const auto dist = [&](const abg::trace::Segment& a, const abg::trace::Segment& b) {
    return abg::distance::compute(opts.metric, abg::synth::observed_series_pkts(a),
                                  abg::synth::observed_series_pkts(b), dopts);
  };
  abg::trace::SegmentSampler sampler(&pool, dist, opts.seed ^ 0x5e95a1d3);
  sampler.grow_to(count);
  std::vector<abg::trace::Segment> out;
  for (std::size_t idx : sampler.selected()) out.push_back(pool[idx]);
  return out;
}

JobCheck check_job(const JobPlan& plan, const PreparedJob& input,
                   const abg::api::JobResult& result) {
  JobCheck c;
  const auto fail = [&](std::string msg) {
    c.error = plan.name + ": " + std::move(msg);
    return c;
  };
  if (!result.ok()) return fail("job ended " + result.status.to_string());
  if (!result.found()) return fail("job found no handler");
  const auto& syn = result.pipeline.synthesis;
  const auto& opts = plan.pipeline.synth;
  c.winner = abg::dsl::to_string(*syn.best.handler);
  c.distance = syn.best.distance;
  c.dsl = result.pipeline.dsl_name;
  if (!abg::dsl::within_dsl(*syn.best.handler, abg::dsl::dsl_by_name(c.dsl))) {
    return fail("winner " + c.winner + " is outside DSL " + c.dsl);
  }

  const auto pool = job_segments(plan, input.traces);
  if (pool.size() != result.pipeline.segments_total) {
    return fail("segment pool " + std::to_string(pool.size()) + " != job's " +
                std::to_string(result.pipeline.segments_total));
  }
  const auto even = [](std::size_t v) { return v % 2 == 0; };
  const std::size_t initial = static_cast<std::size_t>(opts.initial_segments);
  const std::size_t last = initial + 2 * static_cast<std::size_t>(opts.max_iterations);
  if (!even(initial) || !even(opts.final_validation_segments) ||
      last > opts.final_validation_segments) {
    return fail("workload shape breaks the validation-set reconstruction");
  }
  for (std::size_t i = 0; i < syn.iterations.size(); ++i) {
    const std::size_t want = std::min(initial + 2 * i, pool.size());
    if (syn.iterations[i].segments_used != want) {
      return fail("iteration " + std::to_string(i) + " used " +
                  std::to_string(syn.iterations[i].segments_used) + " segments, expected " +
                  std::to_string(want));
    }
  }
  const auto validation = select_segments(pool, opts, opts.final_validation_segments);
  c.validation_segments = validation.size();

  auto dopts = opts.dopts;
  dopts.simd = abg::distance::Simd::kScalar;
  const double again =
      abg::synth::total_distance(*syn.best.handler, validation, opts.metric, dopts);
  if (std::bit_cast<std::uint64_t>(again) != std::bit_cast<std::uint64_t>(c.distance)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "re-scored winner distance %.17g != reported %.17g", again,
                  c.distance);
    return fail(buf);
  }
  const auto& expert = abg::dsl::known_handlers(plan.cca).fine_tuned;
  c.expert = expert ? abg::synth::total_distance(*expert, validation, opts.metric, dopts)
                    : std::numeric_limits<double>::infinity();
  c.recovered = c.distance <= c.expert;
  return c;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
