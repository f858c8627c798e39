#include "synth/shard.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "dsl/parse.hpp"
#include "obs/journal.hpp"
#include "obs/trace_events.hpp"
#include "util/background.hpp"

namespace abg::synth {

namespace {

// Create st.enumerator from the run options (no-op when already built or the
// bucket is exhausted).
void ensure_bucket_enumerator(const dsl::Dsl& dsl, const SynthesisOptions& opts,
                              BucketSearchState& st) {
  if (st.enumerator || st.exhausted) return;
  EnumeratorOptions eopts;
  eopts.unit_check = opts.unit_check;
  eopts.bucket = st.bucket.ops;
  eopts.max_holes = opts.max_holes;
  eopts.max_depth = opts.max_depth;
  eopts.max_nodes = opts.max_nodes;
  st.enumerator = std::make_unique<SketchEnumerator>(dsl, eopts);
}

util::Status no_bucket(const dsl::Dsl& dsl, const std::string& label) {
  return util::Status(util::StatusCode::kInvalidArgument,
                      "DSL '" + dsl.name + "' has no bucket '" + label + "'");
}

}  // namespace

std::uint64_t bucket_rng_seed(const std::string& label, std::uint64_t seed) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ull;
  for (char c : label) h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ull;
  return h;
}

distance::DistanceOptions effective_distance_options(const SynthesisOptions& opts) {
  distance::DistanceOptions dopts = opts.dopts;
  if (opts.simd != distance::Simd::kAuto) dopts.simd = opts.simd;
  return dopts;
}

std::uint32_t journal_job_id(const SynthesisOptions& opts) {
  if (!opts.journal || !obs::journal_enabled()) return 0;
  for (const auto& [key, value] : opts.obs_labels) {
    if (key == "job") return obs::journal_intern(value);
  }
  return 0;
}

ScoredHandler run_bucket_pass(const dsl::Dsl& dsl, const SynthesisOptions& opts,
                              BucketSearchState& st, std::size_t target,
                              const std::vector<trace::Segment>& working, EvalContext* ctx,
                              const std::function<bool()>& stop) {
  static auto& c_sketches = obs::counter("synth.sketches_enumerated");
  ensure_bucket_enumerator(dsl, opts, st);
  while (st.sketches.size() < target && !st.exhausted && (st.sketches.empty() || !stop())) {
    auto s = st.enumerator->next();
    if (!s) {
      st.exhausted = true;
      break;
    }
    c_sketches.add();
    st.sketches.push_back(std::move(*s));
  }
  ScoredHandler bucket_best;
  for (const auto& sk : st.sketches) {
    if (ctx) ctx->abandon_above = bucket_best.distance;
    auto scored =
        score_sketch(sk, working, dsl.constant_pool, opts, st.rng, &st.handlers_scored, ctx);
    if (scored.distance < bucket_best.distance) bucket_best = scored;
    if (stop() && bucket_best.valid()) break;
  }
  st.best = bucket_best;
  return bucket_best;
}

util::Result<ScoredHandler> parse_scored_handler(double distance, const std::string& sketch_text,
                                                 const std::string& handler_text) {
  ScoredHandler sh;
  sh.distance = distance;
  if (!sketch_text.empty()) {
    auto p = dsl::parse(sketch_text);
    if (!p) {
      return util::Status(util::StatusCode::kParseError,
                          "unparseable sketch text '" + sketch_text + "'");
    }
    sh.sketch = p.expr;
  }
  if (!handler_text.empty()) {
    auto p = dsl::parse(handler_text);
    if (!p) {
      return util::Status(util::StatusCode::kParseError,
                          "unparseable handler text '" + handler_text + "'");
    }
    sh.handler = p.expr;
  }
  return sh;
}

BucketCheckpoint fresh_bucket_checkpoint(const std::string& label, std::uint64_t seed) {
  BucketCheckpoint b;
  b.label = label;
  b.rng = util::Rng(bucket_rng_seed(label, seed)).state();
  return b;
}

BucketCheckpoint bucket_state_to_checkpoint(const BucketSearchState& st) {
  BucketCheckpoint b;
  b.label = st.bucket.label;
  b.sketches = st.sketches.size();
  b.handlers_scored = st.handlers_scored;
  b.exhausted = st.exhausted;
  b.rng = st.rng.state();
  b.best_distance = st.best.distance;
  b.best_sketch = st.best.sketch ? dsl::to_string(*st.best.sketch) : std::string();
  b.best_handler = st.best.handler ? dsl::to_string(*st.best.handler) : std::string();
  return b;
}

util::Status bucket_state_from_checkpoint(const dsl::Dsl& dsl, const SynthesisOptions& opts,
                                          const BucketCheckpoint& ck, BucketSearchState* st) {
  st->handlers_scored = ck.handlers_scored;
  st->exhausted = ck.exhausted;
  st->rng.set_state(ck.rng);
  auto best = parse_scored_handler(ck.best_distance, ck.best_sketch, ck.best_handler);
  if (!best.ok()) return best.status().with_context("bucket " + ck.label);
  st->best = *best;
  // Sketches are re-derived, not deserialized: the SMT enumerator is
  // deterministic, so pulling the recorded count reproduces the list. This
  // intentionally does NOT count into synth.sketches_enumerated — the
  // original enumeration already did.
  st->sketches.clear();
  st->enumerator.reset();
  if (ck.sketches > 0) {
    const bool was_exhausted = st->exhausted;
    st->exhausted = false;  // re-open for re-derivation
    ensure_bucket_enumerator(dsl, opts, *st);
    while (st->sketches.size() < ck.sketches) {
      auto s = st->enumerator->next();
      if (!s) {
        return util::Status(util::StatusCode::kParseError,
                            "bucket " + ck.label + " records " + std::to_string(ck.sketches) +
                                " sketches but the enumerator produced only " +
                                std::to_string(st->sketches.size()));
      }
      st->sketches.push_back(std::move(*s));
    }
    st->exhausted = was_exhausted;
  }
  return util::Status::ok();
}

// --- LocalExecutor -------------------------------------------------------------

LocalExecutor::LocalExecutor(const dsl::Dsl& dsl, const std::vector<trace::Segment>& segments,
                             SynthesisOptions opts)
    : dsl_(dsl), segments_(segments), opts_(std::move(opts)) {
  pool_ = opts_.pool;
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<util::ThreadPool>(
        opts_.threads == 0 ? std::thread::hardware_concurrency() : opts_.threads);
    pool_ = owned_pool_.get();
  }
  for (auto& b : make_buckets(dsl_)) {
    BucketSearchState st;
    st.bucket = std::move(b);
    st.rng = util::Rng(bucket_rng_seed(st.bucket.label, opts_.seed));
    states_.push_back(std::move(st));
  }
  journal_job_ = journal_job_id(opts_);
}

LocalExecutor::~LocalExecutor() {
  // A preempted run owes its caller a prompt return, but each started
  // bucket's enumerator owns a Z3 context whose teardown takes tens of
  // milliseconds: a few dozen of them would overshoot the deadline by a
  // second. After an interrupted pass they are freed in the background.
  if (!interrupted_) return;
  auto enumerators = std::make_shared<std::vector<std::unique_ptr<SketchEnumerator>>>();
  for (auto& st : states_) {
    if (st.enumerator) enumerators->push_back(std::move(st.enumerator));
  }
  if (!enumerators->empty()) util::run_in_background([enumerators] { enumerators->clear(); });
}

void LocalExecutor::score_bucket(BucketSearchState& st, std::size_t target, int iter,
                                 const std::vector<trace::Segment>& working,
                                 const util::CancellationToken& tok) {
  obs::TraceSpan span("score " + st.bucket.label, "synth");
  // Journal provenance: the scope is installed inside the task body, so a
  // pool worker that steals the task self-attributes to this run.
  std::optional<obs::JournalScope> jscope;
  if (opts_.journal && obs::journal_enabled()) {
    if (st.journal_bucket == 0) st.journal_bucket = obs::journal_intern(st.bucket.label);
    jscope.emplace(journal_job_, st.journal_bucket, static_cast<std::uint32_t>(iter));
  }
  if (!opts_.obs_labels.empty() && st.labeled_scored == nullptr) {
    obs::Labels labels = opts_.obs_labels;
    labels.emplace_back("bucket", st.bucket.label);
    st.labeled_scored = &obs::counter("synth.handlers_scored", labels);
  }
  const std::size_t scored_before = st.handlers_scored;
  if (tok.cancelled() && found_.load(std::memory_order_acquire)) return;
  EvalContext ctx;
  ctx.cancel = &tok;
  const ScoredHandler bucket_best =
      run_bucket_pass(dsl_, opts_, st, target, working, &ctx, [&tok] { return tok.cancelled(); });
  if (st.labeled_scored != nullptr) {
    st.labeled_scored->add(st.handlers_scored - scored_before);
  }
  if (jscope && bucket_best.valid() && bucket_best.sketch) {
    // This pass's bucket winner (not the run winner: that event carries
    // kJournalFinal and is recorded after final validation).
    obs::journal_record_selected(dsl::hash_expr(*bucket_best.sketch), bucket_best.fingerprint,
                                 bucket_best.distance,
                                 obs::journal_intern(dsl::to_string(*bucket_best.handler)),
                                 false);
  }
  if (bucket_best.valid()) found_.store(true, std::memory_order_release);
}

util::Status LocalExecutor::run_pass(const std::vector<std::size_t>& buckets, std::size_t target,
                                     const std::vector<std::size_t>& working, int iter,
                                     const util::CancellationToken& tok,
                                     std::vector<std::size_t>* complete) {
  std::vector<trace::Segment> segs;
  segs.reserve(working.size());
  for (std::size_t idx : working) segs.push_back(segments_[idx]);
  if (segs.empty()) segs = segments_;  // tiny pools: use everything
  pool_->parallel_for(buckets.size(), [&](std::size_t i) {
    score_bucket(states_[buckets[i]], target, iter, segs, tok);
  });
  *complete = buckets;
  if (!tok.cancelled()) return util::Status::ok();
  interrupted_ = true;
  return util::Status(tok.reason(), "pass interrupted");
}

BucketSummary LocalExecutor::summary(std::size_t bucket) const {
  const BucketSearchState& st = states_[bucket];
  return {st.bucket.label, st.best, st.sketches.size(), st.handlers_scored, st.exhausted};
}

BucketCheckpoint LocalExecutor::snapshot(std::size_t bucket) const {
  return bucket_state_to_checkpoint(states_[bucket]);
}

util::Status LocalExecutor::restore(std::size_t bucket, const BucketCheckpoint& ck) {
  BucketSearchState& st = states_[bucket];
  if (auto s = bucket_state_from_checkpoint(dsl_, opts_, ck, &st); !s.is_ok()) return s;
  if (st.best.valid()) found_.store(true, std::memory_order_release);
  return util::Status::ok();
}

// --- ShardEngine -----------------------------------------------------------------

ShardEngine::ShardEngine(dsl::Dsl dsl, std::vector<trace::Segment> segments,
                         SynthesisOptions opts)
    : dsl_(std::move(dsl)), segments_(std::move(segments)), opts_(std::move(opts)) {
  opts_.dopts = effective_distance_options(opts_);
  pool_fingerprint_ = segment_pool_fingerprint(segments_);
  exec_ = std::make_unique<LocalExecutor>(dsl_, segments_, opts_);
  for (std::size_t b = 0; b < exec_->bucket_count(); ++b) index_[exec_->summary(b).label] = b;
}

util::Status ShardEngine::add_bucket(const std::string& label) {
  return adopt_bucket(fresh_bucket_checkpoint(label, opts_.seed));
}

util::Status ShardEngine::adopt_bucket(const BucketCheckpoint& ck) {
  const auto it = index_.find(ck.label);
  if (it == index_.end()) return no_bucket(dsl_, ck.label);
  if (auto s = exec_->restore(it->second, ck); !s.is_ok()) return s;
  owned_.insert(ck.label);
  return util::Status::ok();
}

util::Result<std::vector<BucketCheckpoint>> ShardEngine::run_pass(
    const std::vector<std::string>& labels, std::size_t target,
    const std::vector<std::size_t>& working_indices, const util::CancellationToken* cancel) {
  std::vector<std::size_t> buckets;
  for (const auto& label : labels) {
    if (!has_bucket(label)) {
      return util::Status(util::StatusCode::kInvalidArgument,
                          "shard does not own bucket '" + label + "'");
    }
    buckets.push_back(index_.at(label));
  }
  for (std::size_t idx : working_indices) {
    if (idx >= segments_.size()) {
      return util::Status(util::StatusCode::kInvalidArgument,
                          "working index " + std::to_string(idx) + " out of range (pool has " +
                              std::to_string(segments_.size()) + " segments)");
    }
  }
  util::CancellationToken tok(cancel);
  std::vector<std::size_t> complete;
  if (auto st = exec_->run_pass(buckets, target, working_indices, 0, tok, &complete);
      !st.is_ok()) {
    return st;
  }
  std::vector<BucketCheckpoint> out;
  out.reserve(buckets.size());
  for (std::size_t b : buckets) out.push_back(exec_->snapshot(b));
  return out;
}

}  // namespace abg::synth
