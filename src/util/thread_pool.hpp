// Work-stealing thread pool shared by the synthesis runtime (§4.4 of the
// paper parallelizes the refinement loop across buckets with Ray; we use a
// local pool instead). One pool instance can serve many concurrent jobs:
// submissions are spread round-robin over per-worker deques, owners pop
// newest-first (cache-hot), and idle workers steal oldest-first from their
// peers — so bucket-scoring tasks from several in-flight synthesis jobs
// interleave instead of queueing behind one job's burst.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/span.hpp"

namespace abg::util {

namespace detail {
// Out-of-line so the template submit() stays free of obs includes; bumps the
// pool.tasks_queued counter.
void note_task_queued();
}  // namespace detail

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = std::thread::hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue a task. Safe to call from multiple threads, including from
  // worker threads themselves (tasks must not block on futures of tasks
  // that cannot be scheduled, i.e. avoid nested blocking waits that exceed
  // the worker count; parallel_for is safe anywhere because the caller
  // participates).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    // The pool.task span closes before the packaged_task publishes the
    // result, so a caller woken by the future finds the span recorded.
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(f)]() mutable -> R {
          obs::Span span("pool.task", "pool");
          return fn();
        });
    std::future<R> fut = task->get_future();
    enqueue([task]() { (*task)(); });
    return fut;
  }

  // Run fn(i) for i in [0, n) across the pool and wait for completion.
  //
  // Templated on the callable, so the per-index hot path is a direct call —
  // no per-index std::function construction, heap allocation, or futures.
  // Indices are claimed from one shared atomic counter by at most
  // min(n - 1, size()) queued helper tasks *and the calling thread itself*
  // (caller-runs): the caller always makes progress even when every worker
  // is busy with other jobs, so nested use can never deadlock the pool.
  // The first exception thrown by any fn(i) is rethrown on the caller after
  // all indices finish.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    if (n == 1) {
      fn(std::size_t{0});
      return;
    }
    struct Ctl {
      std::atomic<std::size_t> next{0};
      std::atomic<std::size_t> done{0};
      std::mutex mu;
      std::condition_variable cv;
      std::exception_ptr error;  // first failure, guarded by mu
    };
    auto ctl = std::make_shared<Ctl>();
    // fn outlives the loop: the caller blocks below until done == n, and a
    // helper that starts after that can only observe next >= n, so it never
    // touches this pointer.
    auto* f = std::addressof(fn);
    const std::size_t total = n;
    // Claims and runs indices until none are left; returns how many it ran.
    auto drain = [ctl, f, total] {
      std::size_t finished = 0;
      std::size_t i;
      while ((i = ctl->next.fetch_add(1, std::memory_order_relaxed)) < total) {
        try {
          (*f)(i);
        } catch (...) {
          std::lock_guard lk(ctl->mu);
          if (!ctl->error) ctl->error = std::current_exception();
        }
        ++finished;
      }
      return finished;
    };
    // The report that completes the count wakes the caller.
    auto report = [ctl, total](std::size_t finished) {
      if (finished == 0) return;
      if (ctl->done.fetch_add(finished, std::memory_order_acq_rel) + finished == total) {
        std::lock_guard lk(ctl->mu);
        ctl->cv.notify_all();
      }
    };
    const std::size_t helpers = std::min(n - 1, size());
    for (std::size_t h = 0; h < helpers; ++h) {
      enqueue([drain, report] {
        std::size_t finished;
        {
          // Closed before the report, so the caller, once woken, finds
          // every helper's pool.task span recorded.
          obs::Span span("pool.task", "pool");
          finished = drain();
        }
        report(finished);
      });
    }
    report(drain());
    std::unique_lock lk(ctl->mu);
    ctl->cv.wait(lk, [&] { return ctl->done.load(std::memory_order_acquire) >= total; });
    if (ctl->error) std::rethrow_exception(ctl->error);
  }

  std::size_t size() const { return workers_.size(); }

 private:
  // A queued callable plus its enqueue instant, so the worker can feed the
  // pool.queue_wait_us histogram when it picks the task up. The submitter's
  // span context rides along explicitly: whichever worker claims the task —
  // including a thief claiming it from another worker's deque — installs it
  // for the duration of the task, so trace events attribute to the
  // submitting job's lane rather than to whatever the worker ran last.
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
    obs::SpanContext ctx;
  };
  // One deque per worker, individually locked: the owner pushes/pops at the
  // back, thieves take from the front. External submissions round-robin
  // across deques so no single worker becomes the bottleneck producer.
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> deque;
  };

  void enqueue(std::function<void()> fn);
  bool try_claim(std::size_t self, Task* out);
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> next_queue_{0};  // round-robin submission cursor

  // Sleep/wake machinery. pending_ counts enqueued-but-unclaimed tasks and
  // is only modified under sleep_mu_, so a worker can never miss the wakeup
  // for a task enqueued between its empty scan and its cv wait.
  std::mutex sleep_mu_;
  std::condition_variable cv_;
  std::size_t pending_ = 0;
  bool stop_ = false;
};

}  // namespace abg::util
