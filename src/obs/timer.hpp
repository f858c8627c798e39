// Scoped phase timers: an RAII guard that measures a steady-clock span and
// feeds it (in microseconds) to a registry histogram on destruction. Only
// the refinement loop uses it, for synth.iter_us (one iteration); the one
// other timing histogram, pool.queue_wait_us (a thread-pool task's wait
// before it runs), is observed directly by the pool.
//
//   void score_all(...) {
//     obs::Timer t(obs::histogram("synth.iter_us"));
//     ...
//   }  // observes elapsed microseconds
#pragma once

#include <chrono>

#include "obs/registry.hpp"

namespace abg::obs {

class Timer {
 public:
  explicit Timer(Histogram& h) : hist_(&h), start_(clock::now()) {}
  ~Timer() { stop(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // Record now instead of at scope exit. Idempotent.
  void stop() {
    if (hist_ == nullptr) return;
    hist_->observe(elapsed_us());
    hist_ = nullptr;
  }

  double elapsed_us() const {
    return std::chrono::duration<double, std::micro>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  Histogram* hist_;
  clock::time_point start_;
};

}  // namespace abg::obs
