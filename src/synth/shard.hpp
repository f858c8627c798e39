// Bucket-level execution of the refinement search. synth::synthesize() is the
// one Algorithm-1 driver; it reaches the buckets through a PassExecutor
// (refinement.hpp). This header holds what every executor shares: the
// per-bucket pass body (run_bucket_pass), the bucket state it mutates, and the
// checkpoint conversions. It also holds the two in-process users of them:
// LocalExecutor, which runs passes on a thread pool, and ShardEngine, a
// distributed worker's label-keyed share of a search (src/dist/ drives it
// over HTTP through the remote executor).
//
// Determinism contract: a bucket pass is a pure function of (bucket state at
// pass entry, enumeration target, working segment set, SynthesisOptions).
// The RNG advances sequentially across passes, so replaying a pass from a
// checkpointed entry state reproduces exactly what the original process
// would have produced — that is the whole recovery story for worker death.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "synth/buckets.hpp"
#include "synth/checkpoint.hpp"
#include "synth/enumerator.hpp"
#include "synth/refinement.hpp"
#include "trace/trace.hpp"
#include "util/cancellation.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace abg::synth {

// Deterministic per-bucket RNG seed: every process that searches bucket
// `label` under run seed `seed` must derive the same stream (FNV-1a over the
// label, keyed by the seed).
std::uint64_t bucket_rng_seed(const std::string& label, std::uint64_t seed);

// The effective distance options for a run: SynthesisOptions::simd, when
// explicit, wins over whatever dopts carries (one knob, not two).
distance::DistanceOptions effective_distance_options(const SynthesisOptions& opts);

// Journal id of the run's {job=...} obs label: 0 ("") for a run without one,
// and 0 when the run is not journaled.
std::uint32_t journal_job_id(const SynthesisOptions& opts);

// Mutable per-bucket search state kept across iterations.
struct BucketSearchState {
  Bucket bucket;
  std::unique_ptr<SketchEnumerator> enumerator;  // created on first use
  std::vector<dsl::ExprPtr> sketches;            // enumerated so far
  ScoredHandler best;                            // best under the *current* segment set
  std::size_t handlers_scored = 0;
  bool exhausted = false;
  util::Rng rng{0};
  // Labeled {job=...,bucket=...} series, resolved on this bucket's first
  // pass (only when the run carries obs_labels) and cached here so the
  // scoring path never re-enters the registry mutex.
  obs::Counter* labeled_scored = nullptr;
  // Interned journal id of this bucket's label, resolved on the first
  // journaled pass (journal_intern takes a mutex; the id is stable after).
  std::uint32_t journal_bucket = 0;
};

// The one per-bucket pass body. Enumerate until st holds `target` sketches
// or the bucket is exhausted — at least one sketch even when `stop` fires, so
// an expired budget still returns the best handler seen (§4.4) — then
// re-score ALL of st's sketches under `working` (Algorithm 1 line 5), each
// bounded by the bucket's own running best (the per-bucket minimum feeds the
// top-k ranking and must stay exact). `stop` is polled after every sketch;
// once a valid best exists a fired stop ends the pass with best-so-far. Sets
// st.best and returns it.
ScoredHandler run_bucket_pass(const dsl::Dsl& dsl, const SynthesisOptions& opts,
                              BucketSearchState& st, std::size_t target,
                              const std::vector<trace::Segment>& working, EvalContext* ctx,
                              const std::function<bool()>& stop);

// Parse a (distance, sketch text, handler text) triple back into a
// ScoredHandler; empty texts stay null. kParseError on malformed text.
util::Result<ScoredHandler> parse_scored_handler(double distance, const std::string& sketch_text,
                                                 const std::string& handler_text);

// Snapshot / restore one bucket's state. Restore re-derives the sketch list
// by re-enumeration (the SMT enumerator is deterministic; sketches are never
// serialized). The fresh checkpoint is a bucket no pass has touched yet.
BucketCheckpoint fresh_bucket_checkpoint(const std::string& label, std::uint64_t seed);
BucketCheckpoint bucket_state_to_checkpoint(const BucketSearchState& st);
util::Status bucket_state_from_checkpoint(const dsl::Dsl& dsl, const SynthesisOptions& opts,
                                          const BucketCheckpoint& ck, BucketSearchState* st);

// The in-process executor: every bucket of the DSL (make_buckets order),
// passes run in parallel on a thread pool. `dsl` and `segments` must outlive
// it; `opts` must be validated with the SIMD choice folded in
// (effective_distance_options). Passes run on opts.pool when set, else on a
// private pool of opts.threads workers (0 = hardware concurrency). An
// interrupted pass reports every bucket complete: each one ends with its
// best-so-far.
class LocalExecutor final : public PassExecutor {
 public:
  LocalExecutor(const dsl::Dsl& dsl, const std::vector<trace::Segment>& segments,
                SynthesisOptions opts);
  ~LocalExecutor() override;

  std::size_t bucket_count() const override { return states_.size(); }
  util::Status run_pass(const std::vector<std::size_t>& buckets, std::size_t target,
                        const std::vector<std::size_t>& working, int iter,
                        const util::CancellationToken& tok,
                        std::vector<std::size_t>* complete) override;
  BucketSummary summary(std::size_t bucket) const override;
  BucketCheckpoint snapshot(std::size_t bucket) const override;
  util::Status restore(std::size_t bucket, const BucketCheckpoint& ck) override;
  util::ThreadPool& pool() override { return *pool_; }

 private:
  void score_bucket(BucketSearchState& st, std::size_t target, int iter,
                    const std::vector<trace::Segment>& working,
                    const util::CancellationToken& tok);

  const dsl::Dsl& dsl_;
  const std::vector<trace::Segment>& segments_;
  SynthesisOptions opts_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_ = nullptr;
  std::vector<BucketSearchState> states_;
  // Set once any bucket holds a valid best. A preempted pass skips the
  // buckets it has not started yet once this is set — building their
  // enumerators just to honor the one-sketch minimum would stretch the
  // deadline by seconds.
  std::atomic<bool> found_{false};
  // Set when a pass ends with its token cancelled; see the destructor.
  bool interrupted_ = false;
  std::uint32_t journal_job_ = 0;
};

// One worker's share of a distributed refinement search: the buckets it owns
// out of a LocalExecutor over the whole DSL. The remote executor drives it
// through add/adopt/run_pass; tools/abagnale_worker exposes the same surface
// over HTTP.
class ShardEngine {
 public:
  // The segment pool must be the full pool of the job (workers rebuild it
  // with api::prepare; the coordinator cross-checks via pool_fingerprint()).
  // `opts` is the job's SynthesisOptions.
  ShardEngine(dsl::Dsl dsl, std::vector<trace::Segment> segments, SynthesisOptions opts);
  // The executor refers to dsl_ and segments_, so the engine stays put.
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  // Start searching `label` from scratch (fresh RNG from bucket_rng_seed).
  // kInvalidArgument when the DSL has no such bucket.
  util::Status add_bucket(const std::string& label);
  // Adopt a bucket mid-search from a checkpoint (shard reassignment after a
  // worker death). Overwrites any existing state for the label, so re-sends
  // are idempotent.
  util::Status adopt_bucket(const BucketCheckpoint& ck);
  bool has_bucket(const std::string& label) const { return owned_.count(label) != 0; }

  // Run one refinement pass over the owned `labels` (`working_indices` into
  // the segment pool; empty = the whole pool). Returns the post-pass
  // checkpoints in input-label order, or the interrupt status when `cancel`
  // fired mid-pass (a cut-short pass is never handed back as complete).
  util::Result<std::vector<BucketCheckpoint>> run_pass(
      const std::vector<std::string>& labels, std::size_t target,
      const std::vector<std::size_t>& working_indices,
      const util::CancellationToken* cancel = nullptr);

  std::uint64_t pool_fingerprint() const { return pool_fingerprint_; }
  std::size_t segment_count() const { return segments_.size(); }

 private:
  dsl::Dsl dsl_;
  std::vector<trace::Segment> segments_;
  SynthesisOptions opts_;
  std::uint64_t pool_fingerprint_ = 0;
  std::unique_ptr<LocalExecutor> exec_;
  std::map<std::string, std::size_t> index_;  // every bucket of the DSL
  std::set<std::string> owned_;               // the ones this shard searches
};

}  // namespace abg::synth
