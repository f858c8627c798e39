// Deterministic, seedable random number generation. Every stochastic step in
// the pipeline (trace noise, constant sampling, segment selection, bucket
// sampling) draws from an explicitly threaded Rng so that experiments are
// reproducible run-to-run.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace abg::util {

// One SplitMix64 step: advances `x` and returns the next output.
std::uint64_t splitmix64(std::uint64_t& x);

// xoshiro256** seeded via SplitMix64; small, fast, and good enough for
// simulation-grade randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  std::uint64_t next_u64();

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Standard normal via Box-Muller.
  double normal(double mean = 0.0, double stddev = 1.0);
  // Bernoulli trial.
  bool chance(double p);
  // Exponential with the given rate (lambda). Requires rate > 0.
  double exponential(double rate);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.empty()) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i)));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  // Pick k distinct indices out of [0, n) (k capped at n), in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  // Derive an independent child stream (for per-task determinism regardless
  // of thread scheduling).
  Rng fork();

  // Full generator state, for checkpoint/resume: restoring a saved state
  // reproduces the exact draw sequence the original stream would have made.
  struct State {
    std::uint64_t s[4] = {};
    bool have_cached_normal = false;
    double cached_normal = 0.0;
  };
  State state() const;
  void set_state(const State& st);

 private:
  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace abg::util
