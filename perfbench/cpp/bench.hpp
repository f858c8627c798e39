// Shared types of the end-to-end benchmark: workload plans, the set-up that
// turns a plan into inputs, one measured batch, the correctness checks and
// the span log of the traced pass. Everything here calls the repository's
// public module interfaces from outside; nothing is instrumented inside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "core/abagnale.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Spans recorded by the traced pass: name, start, end and the enclosing span
// on the same thread. Kept in memory; written once when the run ends.
class SpanLog {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;  // since the log was created
    double end_s = 0.0;
    long parent = -1;      // index of the enclosing record, -1 for a root span
  };

  std::size_t open(std::string name);
  void close(std::size_t index);

  // Sum of the durations of every span with this exact name.
  double total_s(const std::string& name) const;
  // Durations of every span with this exact name, in recording order.
  std::vector<double> durations(const std::string& name) const;
  // Chrome trace-event JSON (complete events), viewable in ui.perfetto.dev.
  bool write_json(const std::string& path) const;

 private:
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

// RAII span; a null log records nothing, so untraced passes pay one branch.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_ = 0;
  long saved_parent_ = -1;
};

// One job of a workload: which CCA generates its traces, under which
// environments, and how the Engine is asked to search.
struct JobPlan {
  std::string name;
  std::string cca;
  std::vector<abg::trace::Environment> envs;
  bool submit_csv = false;  // the Engine loads the trace from the CSV file
  abg::core::PipelineOptions pipeline;  // dsl_override unset = classify
};

struct Workload {
  std::string name;
  std::size_t pool_threads = 0;  // pool threads + drivers = 4 cores
  std::size_t drivers = 0;
  std::vector<JobPlan> jobs;
};

// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

// The inputs of one job after set-up.
struct PreparedJob {
  std::vector<abg::trace::Trace> traces;  // exactly what the job searches
  std::vector<std::string> csv_paths;     // submitted instead of traces when set
  std::size_t rejected = 0;               // generated traces the strict CSV load refused
  std::size_t samples = 0;
};

struct Setup {
  std::vector<PreparedJob> jobs;
  std::unique_ptr<abg::api::Engine> engine;
  double seconds = 0.0;
  double collect_s = 0.0;  // inside net::collect_traces
  std::size_t traces = 0;
  std::size_t rejected = 0;
  std::size_t samples = 0;
};

// Trace generation through abg::net, CSV write and strict re-load, and Engine
// construction. Files go under `work_dir`.
Setup set_up(const Workload& w, const std::string& work_dir, SpanLog* log);

struct JobOutcome {
  abg::api::JobResult result;
  double latency_s = 0.0;  // submit until wait() returned
};

struct BatchResult {
  double setup_s = 0.0;
  double wall_s = 0.0;  // first submit until ~Engine returned
  double cpu_s = 0.0;   // process CPU time over the same interval
  std::vector<JobOutcome> jobs;
  std::size_t traces = 0;
  std::size_t rejected = 0;
  std::size_t samples = 0;
  double collect_s = 0.0;
  std::map<std::string, std::uint64_t> counters;  // unlabeled obs counter deltas
};

// One closed batch: set up, submit every job at once, wait for all of them,
// destroy the Engine. The prepared inputs are returned for the checks.
BatchResult run_batch(const Workload& w, const std::string& work_dir, SpanLog* log,
                      std::vector<PreparedJob>* prepared);

// Outcome of re-checking one job's answer outside the search.
struct JobCheck {
  std::string error;  // empty when every check passed
  std::string winner;
  double distance = 0.0;      // as reported by the job
  double expert = 0.0;        // Table-2 expert handler on the same segments
  bool recovered = false;     // winner no farther than the expert
  std::string dsl;
  std::size_t validation_segments = 0;
};

JobCheck check_job(const JobPlan& plan, const PreparedJob& input,
                   const abg::api::JobResult& result);

// The segments the pipeline derives from a job's traces (warm-up trim, then
// segmentation), and the working / validation selections the refinement loop
// draws from them for `opts`.
std::vector<abg::trace::Segment> job_segments(const JobPlan& plan,
                                              const std::vector<abg::trace::Trace>& traces);
std::vector<abg::trace::Segment> select_segments(const std::vector<abg::trace::Segment>& pool,
                                                 const abg::synth::SynthesisOptions& opts,
                                                 std::size_t count);

// Per-layer numbers of the traced pass, by metric name.
using Metrics = std::map<std::string, double>;
Metrics probe_layers(const Workload& w, const std::vector<PreparedJob>& inputs, SpanLog& log);
// Unit of a per-layer metric, from its name.
std::string metric_unit(const std::string& name);

double process_cpu_s();
double peak_rss_mb();

}  // namespace perfbench
