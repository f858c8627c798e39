// The batch synthesis engine (ISSUE 4 tentpole). One Engine owns the
// process's synthesis infrastructure — a work-stealing util::ThreadPool and
// the obs metrics registry it reports from — and runs any number of submitted jobs against it concurrently:
//
//   api::Engine engine({.threads = 8, .max_concurrent_jobs = 4});
//   auto handle = engine.submit(std::move(spec));      // eager validation
//   if (!handle.ok()) die(handle.status());
//   const api::JobResult& r = handle->wait();
//
// Scheduling model: `max_concurrent_jobs` driver threads pull jobs FIFO from
// the submission queue and run the refinement loop with the shared pool
// injected (SynthesisOptions::pool). Bucket-scoring tasks from all running
// jobs land round-robin on the pool's per-worker deques and idle workers
// steal oldest-first, so a 23-CCA sweep keeps every core busy instead of
// serializing one job's cold start after another; each driver also executes
// its own job's tasks (caller-runs), so a driver can never be starved by its
// peers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/job.hpp"
#include "util/cancellation.hpp"
#include "util/result.hpp"
#include "util/thread_pool.hpp"

namespace abg::api {

struct EngineOptions {
  // Size of the shared scoring pool; 0 = hardware concurrency.
  std::size_t threads = 0;
  // Driver threads, i.e. jobs allowed in flight at once; 0 = min(4, pool
  // size). More drivers improve interleaving for many small jobs; fewer keep
  // per-job wall-clock closer to a standalone run.
  std::size_t max_concurrent_jobs = 0;
};

enum class JobState { kQueued, kRunning, kDone };

// "queued" / "running" / "done" — the /jobs JSON spelling.
const char* job_state_name(JobState s);

// Point-in-time view of one job for the live status surface (ISSUE 5).
// Running jobs report the driver's relaxed-atomic progress mirror (updated
// once per refinement iteration); done jobs report their final JobResult, so
// a snapshot taken after wait_all() matches the results exactly.
struct JobSnapshot {
  std::string name;
  JobState state = JobState::kQueued;
  int iterations = 0;               // refinement iterations completed
  int planned_iterations = 0;       // SynthesisOptions::max_iterations budget
  double best_distance = std::numeric_limits<double>::infinity();
  double elapsed_s = 0.0;
  // Naive remaining-time estimate: elapsed/iterations × iterations left.
  // Negative means unknown (queued, no iterations yet, or already done).
  double eta_s = -1.0;
  bool found = false;   // meaningful once state == kDone
  int exit_class = 0;   // meaningful once state == kDone
};

namespace detail {
struct JobInner;
}  // namespace detail

// Future-like view of one submitted job. Cheap to copy (shared ownership of
// the job record); outliving the Engine is safe for reading results, though
// the Engine's destructor already waits for every job to finish.
class JobHandle {
 public:
  JobHandle() = default;  // invalid until assigned from Engine::submit

  bool valid() const { return inner_ != nullptr; }
  const std::string& name() const;
  JobState state() const;

  // Non-blocking: nullptr until the job finishes, then its result.
  const JobResult* poll() const;
  // Block until the job finishes. The reference stays valid as long as any
  // handle to this job exists.
  const JobResult& wait() const;
  // Cooperatively cancel this job (queued jobs unwind as soon as a driver
  // picks them up). The job completes with the given interrupt class and
  // best-so-far results, mirroring a deadline preemption.
  void cancel(util::StatusCode reason = util::StatusCode::kCancelled) const;

 private:
  friend class Engine;
  explicit JobHandle(std::shared_ptr<detail::JobInner> inner) : inner_(std::move(inner)) {}

  std::shared_ptr<detail::JobInner> inner_;
};

class Engine {
 public:
  explicit Engine(EngineOptions opts = {});
  // Drains: waits for every submitted job to finish (cancel_all() first for
  // a prompt exit), then joins drivers and pool.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Validate the spec eagerly and enqueue it. A spec with an empty name gets
  // "job-<n>". Never blocks on other jobs.
  util::Result<JobHandle> submit(JobSpec spec);

  // All-or-nothing convenience: every spec is validated before any is
  // enqueued, so a bad manifest rejects cleanly instead of half-running.
  util::Result<std::vector<JobHandle>> submit_all(std::vector<JobSpec> specs);

  // Block until every job submitted so far has finished.
  void wait_all();

  // Fire every in-flight and queued job's cancellation token.
  void cancel_all(util::StatusCode reason = util::StatusCode::kCancelled);

  // Resolved configuration and shared state (mainly for tests/reports).
  const EngineOptions& options() const { return opts_; }
  util::ThreadPool& pool() { return pool_; }
  std::size_t jobs_submitted() const;

  // Live introspection (ISSUE 5). Both walk a copy-on-write published job
  // list — submit() republishes the vector under mu_, readers load one
  // shared_ptr and then touch only per-job atomics — so polling from the
  // status endpoint never takes mu_ and never stalls a driver mid-job.
  std::vector<JobSnapshot> jobs_snapshot() const;
  // The /jobs endpoint body: {"jobs":[{name,state,iterations,...}, ...]}.
  std::string jobs_json() const;

 private:
  void driver_loop();
  void run_job(detail::JobInner& job);

  EngineOptions opts_;  // resolved (threads/max_concurrent_jobs concrete)
  util::ThreadPool pool_;

  mutable std::mutex mu_;          // guards queue_, jobs_, counters
  std::condition_variable cv_;     // queue became non-empty / stopping
  std::condition_variable idle_cv_;  // a job finished (wait_all)
  std::deque<std::shared_ptr<detail::JobInner>> queue_;
  std::vector<std::shared_ptr<detail::JobInner>> jobs_;  // every submission
  // Immutable snapshot of jobs_, republished on every submit; the lock-free
  // read side of jobs_snapshot()/jobs_json().
  using JobList = std::vector<std::shared_ptr<detail::JobInner>>;
  std::atomic<std::shared_ptr<const JobList>> published_jobs_{};
  std::size_t active_ = 0;
  std::size_t submitted_ = 0;
  bool stop_ = false;

  std::vector<std::thread> drivers_;
};

}  // namespace abg::api
