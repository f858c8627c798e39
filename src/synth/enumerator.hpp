// Structural sketch enumeration (§4.1). A generator builds operator trees of
// bounded depth and node count from memoized subtrees and admits only
// sketches that
//   * type-check (bool subtrees only under a conditional's guard),
//   * unit-check with integer unit exponents (optional — disabled for the
//     Cubic run, §5.5): each subtree carries its exact set of reachable
//     (bytes, secs) exponents, every hole ranging over ±kHoleUnitRange,
//   * satisfy cheap anti-simplifiability structure (no constant-only
//     operands, canonical associativity, no cbrt/cube inverses, ...),
//   * respect the hole bound and use *exactly* a given operator subset when
//     a bucket discriminator is supplied (§4.4).
// The richer syntactic simplifiability filter (dsl::is_simplifiable) then
// drops reducible trees and commutative duplicates collapse to one canonical
// form. Sketches come smallest first; within a size, in the order of
// splitmix64(dsl::hash_expr(canonical form)), a function of the DSL and the
// bounds alone, so a size level is built whole before its first sketch is
// emitted: time and memory grow with the largest level reached. Two things
// bound them. The memo, the level and its dedupe set are charged to an
// EnumeratorBudget; past it the enumerator frees them and fails with
// kResourceExhausted. And next() takes a stop predicate, polled while a
// level is built, that abandons the level. The Z3 encoding of the same space
// is kept under tests/ as the oracle this generator is checked against.
//
// A bucket whose operator set needs more nodes than the bound allows
// (1 + the sum of its arities > max_nodes) is empty and starts exhausted.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dsl/dsl.hpp"
#include "dsl/expr.hpp"
#include "util/status.hpp"

namespace abg::synth {

// Memory that a set of enumerators may hold together: their subtree memos,
// size levels and dedupe sets. An enumerator charges what it grows by and
// releases everything when it fails or is destroyed. Thread-safe.
class EnumeratorBudget {
 public:
  explicit EnumeratorBudget(std::size_t limit_bytes) : limit_(limit_bytes) {}

  // Adds `bytes` and returns true, or adds nothing and returns false when
  // that would pass the limit.
  bool charge(std::size_t bytes);
  void release(std::size_t bytes) { used_.fetch_sub(bytes, std::memory_order_relaxed); }
  std::size_t used() const { return used_.load(std::memory_order_relaxed); }
  std::size_t limit() const { return limit_; }

 private:
  const std::size_t limit_;
  std::atomic<std::size_t> used_{0};
};

// The budget of an enumerator given none, and the default of a synthesis
// run (SynthesisOptions::enumerator_memory_mb), which all of the run's
// buckets share.
inline constexpr std::size_t kDefaultEnumeratorMemoryMb = 1024;

struct EnumeratorOptions {
  bool unit_check = true;
  // Exact operator-usage set (bucket discriminator). nullopt = whole DSL.
  std::optional<std::vector<dsl::Op>> bucket;
  // Bound on distinct constant holes (keeps concretization tractable).
  int max_holes = 5;
  // Override the DSL's depth/node bounds (e.g. the per-machine depth sweeps
  // of §5).
  std::optional<int> max_depth;
  std::optional<int> max_nodes;
  // Shared with other enumerators, and must outlive this one. nullptr = a
  // private budget of kDefaultEnumeratorMemoryMb.
  EnumeratorBudget* budget = nullptr;
};

class SketchEnumerator {
 public:
  SketchEnumerator(const dsl::Dsl& dsl, EnumeratorOptions opts = {});
  ~SketchEnumerator();

  SketchEnumerator(const SketchEnumerator&) = delete;
  SketchEnumerator& operator=(const SketchEnumerator&) = delete;

  // Next canonical sketch, or nullopt when
  //   * the space is exhausted (exhausted() is then true),
  //   * the budget ran out (status() says so, and every later call returns
  //     nullopt), or
  //   * `stop` fired while a size level was being built. The level is
  //     dropped and the next call builds it again.
  // `stop` is polled every few thousand trees; an empty one never fires.
  std::optional<dsl::ExprPtr> next(const std::function<bool()>& stop = {});

  bool exhausted() const;
  // kResourceExhausted, naming the bucket and the bounds, once the budget
  // ran out; ok before that.
  const util::Status& status() const;
  // Trees handed to the post-filter (including the ones it rejects).
  std::size_t models_enumerated() const;
  // Sketches actually emitted by next().
  std::size_t sketches_emitted() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Convenience: enumerate every sketch in the (sub-)space, up to `cap`.
std::vector<dsl::ExprPtr> enumerate_all(const dsl::Dsl& dsl, const EnumeratorOptions& opts,
                                        std::size_t cap);

}  // namespace abg::synth
