#include "util/background.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

namespace abg::util {

namespace {

class BackgroundThread {
 public:
  void post(std::function<void()> job) {
    {
      std::lock_guard lk(mu_);
      if (!thread_.joinable()) thread_ = std::thread([this] { loop(); });
      jobs_.push_back(std::move(job));
    }
    cv_.notify_one();
  }

  ~BackgroundThread() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    std::unique_lock lk(mu_);
    for (;;) {
      cv_.wait(lk, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping, and everything queued has run
      std::function<void()> job = std::move(jobs_.front());
      jobs_.pop_front();
      lk.unlock();
      job();
      job = nullptr;  // captured resources go before the lock is retaken
      lk.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

void run_in_background(std::function<void()> job) {
  // Constructed on first use, after the libraries the jobs call into, so it
  // is destroyed (and drained) before them.
  static BackgroundThread thread;
  thread.post(std::move(job));
}

}  // namespace abg::util
