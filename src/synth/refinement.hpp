// The synthesis refinement loop (§4.4, Algorithm 1):
//
//   while buckets not exhausted:
//     for each bucket (in parallel): sample N sketches, score them,
//       bucket-score = min distance over concretized handlers
//     keep only the top-k buckets; N *= 8; k /= 2; working segments += 2
//
// synthesize() is the one driver of this loop. It owns the N/k schedule, the
// working-set sampler, checkpoints, the top-k cut, the fold of bucket bests
// and the final validation; a PassExecutor runs the per-bucket passes, either
// in this process (synth::LocalExecutor) or on distributed workers (the
// remote executor in src/dist/).
//
// Every iteration is recorded in an IterationReport so the §6.1 / §6.2 /
// Table 4 accounting (bucket ranks, handlers scored, space explored) can be
// reproduced from a single synthesis run.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "distance/distance.hpp"
#include "dsl/dsl.hpp"
#include "dsl/expr.hpp"
#include "obs/registry.hpp"
#include "synth/buckets.hpp"
#include "synth/concretize.hpp"
#include "synth/enumerator.hpp"
#include "trace/trace.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace abg::util {
class ThreadPool;
}  // namespace abg::util

namespace abg::synth {

struct IterationReport;
struct BucketCheckpoint;

struct SynthesisOptions {
  distance::Metric metric = distance::Metric::kDtw;
  distance::DistanceOptions dopts;

  int initial_samples = 16;       // N in Algorithm 1
  int initial_keep = 5;           // k in Algorithm 1
  int initial_segments = 4;       // working-set size, grows by 2 per iteration
  // After the loop, every bucket-best candidate handler is re-scored on a
  // larger diverse segment sample; the returned handler is the best under
  // that validation set. This is the guard against over-fitting a small
  // working set (§3.2's concern, applied at the end as well).
  std::size_t final_validation_segments = 12;
  int sample_growth = 8;          // N multiplier per iteration
  std::size_t concretize_budget = 48;  // handlers per sketch (§4.2)
  int max_iterations = 6;
  double timeout_s = std::numeric_limits<double>::infinity();
  std::size_t exhaustive_cap = 4000;  // sketch cap when finishing a bucket

  bool unit_check = true;
  int max_holes = 4;
  std::optional<int> max_depth;  // override the DSL's bound
  std::optional<int> max_nodes;

  std::size_t threads = 0;  // 0 = hardware concurrency
  std::uint64_t seed = 7;

  // --- Fault tolerance (ISSUE 3).
  // Optional caller-supplied cancellation. synthesize() links its own token
  // to this one, so an embedding application (or a signal handler) can
  // preempt a run; the loop unwinds with best-so-far and partial=true.
  const util::CancellationToken* cancel = nullptr;
  // When non-empty, the full search state is serialized here after every
  // completed iteration (atomic tmp+rename). With resume=true the loop first
  // restores that state and continues from the next iteration, producing
  // bit-identical results to an uninterrupted run.
  std::string checkpoint_path;
  bool resume = false;

  // DTW kernel tier for every distance this run computes. kAuto defers to
  // ABG_SIMD and then to CPU detection (see distance::resolve_simd); an
  // explicit tier here wins over the environment. Overrides dopts.simd when
  // not kAuto, so callers configure one field, not two.
  distance::Simd simd = distance::Simd::kAuto;

  // --- Search forensics (ISSUE 6). When true AND a process-wide journal is
  // armed (obs::journal_start), this run emits one event per candidate
  // lifecycle step with full provenance. With no journal armed the cost is
  // one relaxed load per site; false opts this run out even when a journal
  // is armed (a batch can journal selected jobs only). Never changes the
  // result — the journal observes the search, it does not steer it.
  bool journal = true;

  // --- Batch engine hooks (ISSUE 4). None of these change the result; they
  // let abg::api::Engine run many jobs against shared infrastructure.
  // Non-owning executor. When set, bucket scoring and final validation run on
  // this pool (shared across jobs by the engine) instead of a fresh per-run
  // pool; `threads` is then ignored. Must outlive the synthesize() call.
  util::ThreadPool* pool = nullptr;
  // Streamed progress: invoked on the synthesizing thread right after each
  // completed iteration's report is recorded (checkpoint-restored iterations
  // are not replayed). The report reference is valid only during the call.
  std::function<void(const IterationReport&)> on_iteration;

  // --- Live introspection (ISSUE 5). When non-empty, the run additionally
  // records labeled metric series carrying these labels (the engine passes
  // {job=<name>, cca=<dsl>}): synth.iterations / synth.best_distance per
  // run, and synth.handlers_scored with a `bucket` label appended per
  // bucket. The unlabeled process-wide series keep counting regardless, so
  // existing totals (and the double-accounting tests) are unaffected.
  obs::Labels obs_labels;

  // Eager validation of every knob above; called by synthesize() and by
  // every api entry point. Returns kInvalidArgument naming the first bad
  // field, so misconfiguration fails before any work instead of late (a
  // negative sample count, zero keep, or segments < 1 previously crept into
  // the loop arithmetic).
  util::Status validate() const;
};

struct ScoredHandler {
  dsl::ExprPtr sketch;   // with holes
  dsl::ExprPtr handler;  // concrete
  double distance = std::numeric_limits<double>::infinity();
  // Journal identity (obs::journal_fingerprint) of the winning hole
  // assignment; 0 when the run was not journaled (or the handler was
  // restored from a checkpoint). Lets `abg_inspect why <fingerprint>` trace
  // a selected handler back through its lifecycle events.
  std::uint64_t fingerprint = 0;

  bool valid() const { return handler != nullptr; }
};

struct BucketReport {
  std::string label;
  double score = std::numeric_limits<double>::infinity();
  std::size_t sketches_enumerated = 0;
  std::size_t handlers_scored = 0;
  bool exhausted = false;
  bool retained = false;
};

struct IterationReport {
  int n_target = 0;              // N for this iteration
  int keep = 0;                  // k for this iteration
  std::size_t segments_used = 0;
  std::vector<BucketReport> buckets;  // sorted by ascending score
  double seconds = 0.0;
  // Convergence point (ISSUE 5): the run's best distance after this
  // iteration, so a search-progress curve (paper Figure 3 style) falls out
  // of the report series.
  double best_distance = std::numeric_limits<double>::infinity();
};

struct SynthesisResult {
  ScoredHandler best;  // distance is over the final validation set
  std::vector<IterationReport> iterations;
  std::size_t candidates_validated = 0;
  std::size_t initial_buckets = 0;
  std::size_t total_sketches = 0;
  std::size_t total_handlers_scored = 0;
  bool timed_out = false;
  // True when the run was preempted (deadline, external cancel, or injected
  // fault) and `best` is the best-so-far rather than a completed search.
  bool partial = false;
  // kOk for a completed run; the interrupt class (kTimeout/kCancelled) for a
  // partial one; a hard error (e.g. a corrupted checkpoint) otherwise.
  util::Status status;
  double seconds = 0.0;

  // Rank (1-based) of the bucket with the given label after iteration
  // `iter` (0-based), and the number of buckets scored in that iteration —
  // the "pos. after iteration i" cells of Table 4. nullopt if the bucket
  // was not scored in that iteration (already discarded).
  std::optional<std::pair<std::size_t, std::size_t>> bucket_rank(const std::string& label,
                                                                 std::size_t iter) const;
};

// Per-call evaluation state threaded through score_sketch by the bucket pass.
// The default-constructed context is equivalent to passing none.
struct EvalContext {
  // Candidates that cannot beat this distance may be abandoned mid-
  // evaluation. The bucket pass passes the bucket's best-so-far (not the
  // global best: bucket scores feed the top-k ranking, so each bucket's own
  // minimum must stay exact).
  double abandon_above = std::numeric_limits<double>::infinity();
  // Polled once per concretized handler; when set and fired, score_sketch
  // stops early but still returns the best handler it has already scored.
  const util::CancellationToken* cancel = nullptr;
};

// Score one sketch against a working set of segments: concretize (§4.2),
// replay every handler, return the best. Each sketch is compiled to bytecode
// once and replayed across up to dsl::kBatchLanes hole assignments in
// lockstep; DTW runs per lane under the abandon bound. `handlers_scored` is
// incremented by the number of concrete handlers scored.
//
// Candidates whose true distance is >= the bound (ctx->abandon_above,
// tightened by this sketch's own running best) may come back with distance =
// +inf instead of their exact score. The returned best is exact whenever it
// beats ctx->abandon_above, which is the only case the refinement loop
// consumes; ties keep the first candidate in assignment order.
ScoredHandler score_sketch(const dsl::ExprPtr& sketch,
                           const std::vector<trace::Segment>& segments,
                           const std::vector<double>& constant_pool,
                           const SynthesisOptions& opts, util::Rng& rng,
                           std::size_t* handlers_scored = nullptr,
                           EvalContext* ctx = nullptr);

// What the driver reads back from one bucket after a pass.
struct BucketSummary {
  std::string label;
  ScoredHandler best;  // best under the working set of the bucket's last pass
  std::size_t sketches = 0;
  std::size_t handlers_scored = 0;
  bool exhausted = false;
};

// How the driver reaches the buckets of a search. Buckets are indexed in
// make_buckets order.
class PassExecutor {
 public:
  PassExecutor() = default;
  PassExecutor(const PassExecutor&) = delete;
  PassExecutor& operator=(const PassExecutor&) = delete;
  virtual ~PassExecutor() = default;

  virtual std::size_t bucket_count() const = 0;
  // Run one pass over `buckets` (indices, in live order): enumerate each to
  // `target` sketches, then re-score all its sketches under the working set
  // (`working` indexes the segment pool; empty = the whole pool). `iter`
  // attributes the pass in the journal. Fills `complete` with the buckets
  // whose pass result may be folded, in the given order. Returns ok, the
  // token's interrupt (kCancelled/kTimeout) when `tok` fired during the
  // pass, or a hard error.
  virtual util::Status run_pass(const std::vector<std::size_t>& buckets, std::size_t target,
                                const std::vector<std::size_t>& working, int iter,
                                const util::CancellationToken& tok,
                                std::vector<std::size_t>* complete) = 0;
  virtual BucketSummary summary(std::size_t bucket) const = 0;
  virtual BucketCheckpoint snapshot(std::size_t bucket) const = 0;
  virtual util::Status restore(std::size_t bucket, const BucketCheckpoint& ck) = 0;
  // Where final validation runs.
  virtual util::ThreadPool& pool() = 0;
};

// Run the full refinement loop over the DSL and segment pool, in process.
SynthesisResult synthesize(const dsl::Dsl& dsl, const std::vector<trace::Segment>& segments,
                           const SynthesisOptions& opts = {});

// The driver itself, over any executor. `opts` must already be validated,
// with effective_distance_options folded into opts.dopts.
SynthesisResult synthesize(const std::vector<trace::Segment>& segments,
                           const SynthesisOptions& opts, PassExecutor& exec);

}  // namespace abg::synth
