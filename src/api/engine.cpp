#include "api/engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "api/version.hpp"
#include "classify/classifier.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/trace_events.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace abg::api {

namespace detail {

// One submitted job's full record: spec in, result out, plus the done latch
// and the cancellation token the engine threads through the synthesis loop.
struct JobInner {
  explicit JobInner(JobSpec s)
      : spec(std::move(s)), token(spec.pipeline.synth.cancel) {}

  JobSpec spec;
  JobResult result;
  // Parent-linked to any caller-supplied token in the spec, so both the
  // engine (cancel_all, handle.cancel) and the embedding application can
  // preempt the job; the caller's token must outlive the run, as documented
  // on SynthesisOptions::cancel.
  util::CancellationToken token;

  std::atomic<JobState> state{JobState::kQueued};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;

  // Live progress mirror (ISSUE 5): written by the driver thread once per
  // refinement iteration with relaxed stores, read lock-free by
  // Engine::jobs_snapshot(). Each field is independently atomic — a reader
  // may see iteration N's count with iteration N-1's distance, which is fine
  // for a monitoring surface; the authoritative record is JobResult.
  struct Progress {
    std::atomic<int> iterations{0};
    std::atomic<double> best_distance{std::numeric_limits<double>::infinity()};
    std::atomic<double> elapsed_s{0.0};
  };
  Progress progress;
};

}  // namespace detail

// --- JobSpec validation ------------------------------------------------------

util::Status JobSpec::validate() const {
  auto bad = [](const std::string& msg) {
    return util::Status(util::StatusCode::kInvalidArgument, msg);
  };
  const bool has_traces = !trace_paths.empty() || !traces.empty();
  if (!has_traces && segments.empty()) {
    return bad("job has no input: add trace paths, traces, or segments");
  }
  if (!segments.empty() && has_traces) {
    return bad("pre-segmented input and raw traces are mutually exclusive");
  }
  for (const auto& p : trace_paths) {
    if (p.empty()) return bad("empty trace path");
  }
  const bool has_dsl = custom_dsl.has_value() || pipeline.dsl_override.has_value();
  if (!segments.empty() && !has_dsl) {
    return bad("pre-segmented input needs an explicit DSL (there is nothing to classify)");
  }
  if (custom_dsl && custom_dsl->name.empty()) return bad("custom_dsl has no name");
  if (auto st = pipeline.validate(); !st.is_ok()) return st.with_context("pipeline");
  if (kind == Kind::kMister880) {
    if (!has_dsl) return bad("mister880 jobs need an explicit DSL");
    if (auto st = mister880.validate(); !st.is_ok()) return st.with_context("mister880");
  }
  return util::Status::ok();
}

// --- Pipeline front half --------------------------------------------------------

util::Result<PreparedJob> prepare(const JobSpec& spec) {
  std::vector<trace::Trace> traces;
  for (const auto& path : spec.trace_paths) {
    auto t = trace::load_csv(path, spec.load);
    if (!t.ok()) return t.status().with_context(path);
    traces.push_back(std::move(*t));
  }
  for (const auto& t : spec.traces) traces.push_back(t);

  const core::PipelineOptions& popts = spec.pipeline;
  PreparedJob job;
  if (spec.custom_dsl) {
    job.dsl = *spec.custom_dsl;
  } else if (popts.dsl_override) {
    job.dsl = dsl::dsl_by_name(*popts.dsl_override);  // validated: name is curated
  } else {
    classify::Classifier classifier(popts.classifier);
    job.classification = classifier.classify(traces);
    job.dsl = dsl::dsl_by_name(core::dsl_for_classification(job.classification));
    ABG_INFO("classifier: label=%s -> DSL '%s'", job.classification.label.c_str(),
             job.dsl.name.c_str());
  }
  if (!spec.segments.empty()) {
    job.segments = spec.segments;
  } else {
    std::vector<trace::Trace> steady;
    steady.reserve(traces.size());
    for (const auto& t : traces) steady.push_back(trace::trim_warmup(t, popts.warmup_s));
    job.segments =
        trace::segment_all(steady, popts.min_segment_samples, popts.skip_first_segment);
  }
  ABG_INFO("job input: DSL '%s', %zu segments from %zu traces", job.dsl.name.c_str(),
           job.segments.size(), traces.size());
  return job;
}

void record_synthesis(PreparedJob job, synth::SynthesisResult synthesis, JobResult* out) {
  out->pipeline.classification = std::move(job.classification);
  out->pipeline.dsl_name = job.dsl.name;
  out->pipeline.segments_total = job.segments.size();
  out->pipeline.synthesis = std::move(synthesis);
  out->segments_total = job.segments.size();
  out->status = out->pipeline.synthesis.status;
  // Built from the recorded iteration reports rather than the streamed
  // callbacks, so checkpoint-restored iterations (which are not replayed
  // through on_iteration) are included and the series always matches the
  // final SynthesisResult.
  const auto& iters = out->pipeline.synthesis.iterations;
  out->convergence.clear();
  out->convergence.reserve(iters.size());
  double wall_ms = 0.0;
  for (std::size_t i = 0; i < iters.size(); ++i) {
    wall_ms += iters[i].seconds * 1000.0;
    out->convergence.push_back({static_cast<int>(i), iters[i].best_distance, wall_ms});
  }
}

// --- JobHandle ---------------------------------------------------------------

const std::string& JobHandle::name() const { return inner_->result.name; }

JobState JobHandle::state() const { return inner_->state.load(std::memory_order_acquire); }

const JobResult* JobHandle::poll() const {
  if (!inner_ || inner_->state.load(std::memory_order_acquire) != JobState::kDone) {
    return nullptr;
  }
  return &inner_->result;
}

const JobResult& JobHandle::wait() const {
  std::unique_lock lk(inner_->mu);
  inner_->cv.wait(lk, [&] { return inner_->done; });
  return inner_->result;
}

void JobHandle::cancel(util::StatusCode reason) const {
  if (inner_) inner_->token.cancel(reason);
}

// --- Engine ------------------------------------------------------------------

Engine::Engine(EngineOptions opts) : opts_([&] {
      EngineOptions resolved = opts;
      if (resolved.threads == 0) {
        resolved.threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
      }
      if (resolved.max_concurrent_jobs == 0) {
        resolved.max_concurrent_jobs = std::min<std::size_t>(4, resolved.threads);
      }
      return resolved;
    }()),
    pool_(opts_.threads) {
  // Every metrics/report snapshot taken while an Engine exists names the API
  // surface it was produced under, so abg_report comparisons across versions
  // fail loudly instead of silently diffing incompatible runs.
  obs::set_report_meta("api_version", ABG_API_VERSION);
  drivers_.reserve(opts_.max_concurrent_jobs);
  for (std::size_t i = 0; i < opts_.max_concurrent_jobs; ++i) {
    drivers_.emplace_back([this] { driver_loop(); });
  }
}

Engine::~Engine() {
  wait_all();
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& d : drivers_) d.join();
}

util::Result<JobHandle> Engine::submit(JobSpec spec) {
  if (auto st = spec.validate(); !st.is_ok()) {
    return st.with_context(spec.name.empty() ? std::string("job") : "job '" + spec.name + "'");
  }
  auto inner = std::make_shared<detail::JobInner>(std::move(spec));
  {
    std::lock_guard lk(mu_);
    ++submitted_;
    if (inner->spec.name.empty()) inner->spec.name = "job-" + std::to_string(submitted_);
    inner->result.name = inner->spec.name;
    inner->result.kind = inner->spec.kind;
    queue_.push_back(inner);
    jobs_.push_back(inner);
    // Republish the job list for the lock-free status readers. Copying the
    // vector of shared_ptrs per submit is cheap next to a synthesis run.
    published_jobs_.store(std::make_shared<const JobList>(jobs_), std::memory_order_release);
  }
  static auto& c_submitted = obs::counter("api.jobs_submitted");
  c_submitted.add();
  cv_.notify_one();
  return JobHandle(std::move(inner));
}

util::Result<std::vector<JobHandle>> Engine::submit_all(std::vector<JobSpec> specs) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (auto st = specs[i].validate(); !st.is_ok()) {
      return st.with_context("manifest job " + std::to_string(i + 1) +
                             (specs[i].name.empty() ? "" : " ('" + specs[i].name + "')"));
    }
  }
  std::vector<JobHandle> handles;
  handles.reserve(specs.size());
  for (auto& spec : specs) {
    auto h = submit(std::move(spec));
    if (!h.ok()) return h.status();  // unreachable: validated above
    handles.push_back(std::move(*h));
  }
  return handles;
}

void Engine::wait_all() {
  std::unique_lock lk(mu_);
  idle_cv_.wait(lk, [&] { return queue_.empty() && active_ == 0; });
}

void Engine::cancel_all(util::StatusCode reason) {
  std::lock_guard lk(mu_);
  for (auto& j : jobs_) j->token.cancel(reason);
}

std::size_t Engine::jobs_submitted() const {
  std::lock_guard lk(mu_);
  return submitted_;
}

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
  }
  return "unknown";
}

std::vector<JobSnapshot> Engine::jobs_snapshot() const {
  const auto list = published_jobs_.load(std::memory_order_acquire);
  std::vector<JobSnapshot> out;
  if (!list) return out;
  out.reserve(list->size());
  for (const auto& j : *list) {
    JobSnapshot s;
    s.name = j->result.name;  // fixed at submit, immutable afterwards
    s.state = j->state.load(std::memory_order_acquire);
    s.planned_iterations = j->spec.pipeline.synth.max_iterations;
    if (s.state == JobState::kDone) {
      // The kDone release store publishes the finished JobResult.
      const JobResult& r = j->result;
      s.iterations = static_cast<int>(r.convergence.size());
      if (!r.convergence.empty()) s.best_distance = r.convergence.back().best_distance;
      if (r.kind == JobSpec::Kind::kPipeline && r.pipeline.found()) {
        s.best_distance = r.pipeline.synthesis.best.distance;
      }
      s.elapsed_s = r.seconds;
      s.found = r.found();
      s.exit_class = r.exit_class();
    } else if (s.state == JobState::kRunning) {
      const auto& p = j->progress;
      s.iterations = p.iterations.load(std::memory_order_relaxed);
      s.best_distance = p.best_distance.load(std::memory_order_relaxed);
      s.elapsed_s = p.elapsed_s.load(std::memory_order_relaxed);
      if (s.iterations > 0 && s.planned_iterations > s.iterations && s.elapsed_s > 0) {
        s.eta_s = s.elapsed_s / s.iterations * (s.planned_iterations - s.iterations);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string Engine::jobs_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("jobs");
  w.begin_array();
  for (const auto& s : jobs_snapshot()) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("state");
    w.value(job_state_name(s.state));
    w.key("iterations");
    w.value(static_cast<std::int64_t>(s.iterations));
    w.key("planned_iterations");
    w.value(static_cast<std::int64_t>(s.planned_iterations));
    w.key("best_distance");
    w.value(s.best_distance);  // +inf (no candidate yet) renders as null
    w.key("elapsed_s");
    w.value(s.elapsed_s);
    w.key("eta_s");
    w.value(s.eta_s);  // negative = unknown
    w.key("found");
    w.value(s.found);
    w.key("exit_class");
    w.value(static_cast<std::int64_t>(s.exit_class));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void Engine::driver_loop() {
  for (;;) {
    std::shared_ptr<detail::JobInner> job;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      job = queue_.front();
      queue_.pop_front();
      ++active_;
    }
    job->state.store(JobState::kRunning, std::memory_order_release);
    run_job(*job);
    // Terminal callback fires before the done latch / kDone store, so a
    // waiter released by wait() can rely on its side effects (the serve
    // layer's durable WAL record + result file) already being on disk.
    if (job->spec.on_complete) job->spec.on_complete(job->result);
    {
      std::lock_guard lk(job->mu);
      job->done = true;
    }
    job->state.store(JobState::kDone, std::memory_order_release);
    job->cv.notify_all();
    {
      std::lock_guard lk(mu_);
      --active_;
    }
    idle_cv_.notify_all();
  }
}

void Engine::run_job(detail::JobInner& job) {
  static auto& c_completed = obs::counter("api.jobs_completed");
  util::Stopwatch clock;
  // Give the job its own trace lane: every span opened while this driver (or
  // a pool worker running this job's stolen tasks) is inside the job carries
  // the lane's pid, so the exported trace renders one Perfetto track per job
  // instead of one interleaved process soup.
  const std::uint32_t lane =
      obs::tracing_enabled() ? obs::register_lane("job " + job.spec.name) : 0;
  obs::ContextScope lane_scope(obs::SpanContext{lane, 0});
  obs::TraceSpan span("api.job " + job.spec.name, "api");
  JobResult& out = job.result;

  // Inject the shared infrastructure. The spec's own options stay authoritative
  // for everything that affects the search result; only the executor,
  // cancellation, and progress plumbing are engine-provided.
  core::PipelineOptions popts = job.spec.pipeline;
  popts.synth.pool = &pool_;
  popts.synth.cancel = &job.token;

  // Labeled metric series for this run: {job=<name>[, cca=<dsl>]}. The synth
  // layer appends the per-bucket label itself.
  obs::Labels job_labels{{"job", job.spec.name}};
  if (job.spec.custom_dsl) {
    job_labels.emplace_back("cca", job.spec.custom_dsl->name);
  } else if (popts.dsl_override) {
    job_labels.emplace_back("cca", *popts.dsl_override);
  }
  popts.synth.obs_labels = job_labels;

  // Interpose on the per-iteration stream to keep the lock-free progress
  // mirror current, then forward to any caller-supplied callback. Runs on
  // this driver thread, so `job` and `clock` comfortably outlive it.
  const auto user_cb = job.spec.on_iteration;
  popts.synth.on_iteration = [&job, &clock, user_cb](const synth::IterationReport& rep) {
    auto& p = job.progress;
    p.iterations.fetch_add(1, std::memory_order_relaxed);
    p.best_distance.store(rep.best_distance, std::memory_order_relaxed);
    p.elapsed_s.store(clock.elapsed_seconds(), std::memory_order_relaxed);
    if (user_cb) user_cb(rep);
  };

  auto prepared = prepare(job.spec);
  if (!prepared.ok()) {
    // A batch manifest must not silently shrink its inputs: one bad file
    // fails this job (and only this job).
    out.status = prepared.status();
    out.seconds = clock.elapsed_seconds();
    c_completed.add();
    return;
  }
  if (job.spec.kind == JobSpec::Kind::kMister880) {
    out.segments_total = prepared->segments.size();
    out.mister880 =
        synth::mister880_synthesize(prepared->dsl, prepared->segments, job.spec.mister880);
    out.status = util::Status::ok();
  } else {
    auto synthesis = synth::synthesize(prepared->dsl, prepared->segments, popts.synth);
    record_synthesis(std::move(*prepared), std::move(synthesis), &out);
  }
  out.seconds = clock.elapsed_seconds();
  obs::gauge("api.job.seconds", job_labels).set(out.seconds);
  c_completed.add();
}

}  // namespace abg::api
