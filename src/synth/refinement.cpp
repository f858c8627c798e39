#include "synth/refinement.hpp"

#include <algorithm>
#include <cmath>

#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "obs/trace_events.hpp"
#include "dsl/bytecode.hpp"
#include "synth/batch_eval.hpp"
#include "synth/checkpoint.hpp"
#include "synth/replay.hpp"
#include "synth/shard.hpp"
#include "trace/sampler.hpp"
#include "util/fault_injection.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace abg::synth {

util::Status SynthesisOptions::validate() const {
  auto bad = [](const std::string& msg) {
    return util::Status(util::StatusCode::kInvalidArgument, msg);
  };
  auto require_min = [&](long long v, long long min, const char* field) {
    return v < min ? bad(std::string(field) + " must be >= " + std::to_string(min) + ", got " +
                         std::to_string(v))
                   : util::Status::ok();
  };
  if (auto st = require_min(initial_samples, 1, "initial_samples"); !st.is_ok()) return st;
  if (auto st = require_min(initial_keep, 1, "initial_keep"); !st.is_ok()) return st;
  if (auto st = require_min(initial_segments, 1, "initial_segments"); !st.is_ok()) return st;
  if (auto st = require_min(static_cast<long long>(final_validation_segments), 1,
                            "final_validation_segments");
      !st.is_ok()) {
    return st;
  }
  if (auto st = require_min(sample_growth, 1, "sample_growth"); !st.is_ok()) return st;
  if (auto st = require_min(static_cast<long long>(concretize_budget), 1, "concretize_budget");
      !st.is_ok()) {
    return st;
  }
  if (auto st = require_min(max_iterations, 1, "max_iterations"); !st.is_ok()) return st;
  if (auto st = require_min(static_cast<long long>(exhaustive_cap), 1, "exhaustive_cap");
      !st.is_ok()) {
    return st;
  }
  if (auto st = require_min(max_holes, 0, "max_holes"); !st.is_ok()) return st;
  if (max_depth && *max_depth < 1) return bad("max_depth must be >= 1 when set");
  if (max_nodes && *max_nodes < 1) return bad("max_nodes must be >= 1 when set");
  if (std::isnan(timeout_s) || timeout_s < 0.0) {
    return bad("timeout_s must be >= 0 (0 = expire immediately, infinity = no deadline)");
  }
  if (dopts.max_points < 2) return bad("dopts.max_points must be >= 2");
  if (std::isnan(dopts.dtw_band_frac)) return bad("dopts.dtw_band_frac must not be NaN");
  if (resume && checkpoint_path.empty()) {
    return bad("resume requires a checkpoint_path to restore from");
  }
  return util::Status::ok();
}

ScoredHandler score_sketch(const dsl::ExprPtr& sketch,
                           const std::vector<trace::Segment>& segments,
                           const std::vector<double>& constant_pool,
                           const SynthesisOptions& opts, util::Rng& rng,
                           std::size_t* handlers_scored, EvalContext* ctx) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ScoredHandler best;
  best.sketch = sketch;
  // The abandon bound: candidates must beat both the caller's bucket-best
  // and this sketch's own running best to matter. Tightens as better
  // candidates land; never loosens.
  double cutoff = ctx ? ctx->abandon_above : kInf;
  ConcretizeOptions copts;
  copts.budget = opts.concretize_budget;
  const auto assignments = enumerate_assignments(*sketch, constant_pool, copts, rng);
  // Journal identity: the sketch stored in BucketState is the enumerator's
  // canonical form, so hashing it directly matches the kSketch event the
  // enumerator recorded. Fingerprints then pin each hole assignment.
  const bool jrn = obs::journal_in_scope();
  const std::uint64_t sketch_hash = jrn ? dsl::hash_expr(*sketch) : 0;
  const distance::DistanceOptions dopts = effective_distance_options(opts);

  // Compiled once per sketch; every lane of every window reuses it. The
  // observed series are candidate-independent, so they are shared too.
  std::optional<dsl::Program> prog;
  std::vector<std::vector<double>> observed;

  // The scoring window: up to dsl::kBatchLanes candidates in assignment
  // order, with their journal fingerprints.
  std::vector<const std::vector<double>*> lanes;
  std::vector<std::uint64_t> lane_fp;
  lanes.reserve(dsl::kBatchLanes);
  lane_fp.reserve(dsl::kBatchLanes);
  std::size_t evaluated = 0;

  auto flush = [&] {
    if (lanes.empty()) return;
    if (!prog) {
      prog.emplace(dsl::compile(*sketch));
      observed.reserve(segments.size());
      for (const auto& seg : segments) observed.push_back(observed_series_pkts(seg));
    }
    std::vector<std::vector<std::vector<double>>> synth(segments.size());
    for (std::size_t s = 0; s < segments.size(); ++s) {
      replay_batch(*prog, lanes, segments[s], {}, &synth[s]);
    }
    // Every lane runs DTW under the cutoff as it stood when the window
    // opened (c0). A candidate's distance is exact whenever it is below c0,
    // and the window's candidates are folded in assignment order, so the
    // winner is the first strict minimum whenever it beats the caller's bound.
    const double c0 = cutoff;
    const bool bounded = std::isfinite(c0);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      // Re-open the candidate's journal bracket so this lane's DTW detail
      // events (and the cell tally) attribute to it.
      if (jrn) obs::journal_begin_candidate(sketch_hash, lane_fp[k]);
      double sum = 0.0;
      bool abandoned = false;
      for (std::size_t s = 0; s < segments.size(); ++s) {
        if (obs::journal_enabled()) obs::journal_set_segment(static_cast<std::uint32_t>(s));
        // Per-segment distances are non-negative, so the running sum bounds
        // the total from below: once it reaches c0 the candidate is out.
        sum += distance::compute(opts.metric, synth[s][k], observed[s], dopts,
                                 bounded ? c0 - sum : distance::kNoAbandon);
        if (bounded && sum >= c0) {
          static auto& c_ab = obs::counter("synth.distance_abandons");
          c_ab.add();
          abandoned = true;
          break;
        }
      }
      const double d = abandoned ? kInf : sum;
      if (jrn) {
        // Terminal: exact distance, or abandoned against the bound (an
        // abandoned evaluation surfaces as +inf).
        obs::journal_record_candidate(std::isfinite(d) ? obs::JournalKind::kEvaluated
                                                       : obs::JournalKind::kAbandoned,
                                      d, obs::journal_take_cells());
        obs::journal_end_candidate();
      }
      if (d < best.distance) {
        best.distance = d;
        best.handler = dsl::fill_holes(sketch, *lanes[k]);
        best.fingerprint = lane_fp[k];
        cutoff = std::min(cutoff, d);
      }
    }
    lanes.clear();
    lane_fp.clear();
  };

  for (const auto& assign : assignments) {
    if (ctx && ctx->cancel && ctx->cancel->cancelled()) {
      // Settle the in-flight window first — its candidates are already in
      // the journal funnel and must reach a terminal — then stop as soon as
      // a valid best exists; the caller keeps the best-so-far.
      flush();
      if (best.valid()) break;
    }
    ++evaluated;
    std::uint64_t fp = 0;
    if (jrn) {
      // kEnumerated at the same point as ++evaluated, so the funnel's top
      // reconciles exactly with total_handlers_scored.
      fp = obs::journal_fingerprint(sketch_hash, assign);
      obs::journal_begin_candidate(sketch_hash, fp);
      obs::journal_record_candidate(obs::JournalKind::kEnumerated, cutoff, 0);
      obs::journal_end_candidate();
    }
    lanes.push_back(&assign);
    lane_fp.push_back(fp);
    if (lanes.size() >= dsl::kBatchLanes) flush();
  }
  flush();
  if (handlers_scored) *handlers_scored += evaluated;
  // Same site as the hand count above, so the registry and the per-bucket
  // fields cannot drift (test_obs asserts they agree).
  static auto& c_scored = obs::counter("synth.handlers_scored");
  c_scored.add(evaluated);
  return best;
}

std::optional<std::pair<std::size_t, std::size_t>> SynthesisResult::bucket_rank(
    const std::string& label, std::size_t iter) const {
  if (iter >= iterations.size()) return std::nullopt;
  const auto& buckets = iterations[iter].buckets;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].label == label) return std::make_pair(i + 1, buckets.size());
  }
  return std::nullopt;
}

SynthesisResult synthesize(const dsl::Dsl& dsl, const std::vector<trace::Segment>& segments,
                           const SynthesisOptions& opts_in) {
  // Eager options validation: a bad knob fails here, before any enumerator,
  // pool, or checkpoint work, with the field named in the status.
  if (auto st = opts_in.validate(); !st.is_ok()) {
    SynthesisResult result;
    result.status = st.with_context("SynthesisOptions");
    return result;
  }
  // Fold the run-level SIMD choice into the distance options once, so every
  // downstream distance — bucket scoring and final validation alike — runs
  // the same kernel.
  SynthesisOptions opts = opts_in;
  opts.dopts = effective_distance_options(opts);
  LocalExecutor exec(dsl, segments, opts);
  return synthesize(segments, opts, exec);
}

SynthesisResult synthesize(const std::vector<trace::Segment>& segments,
                           const SynthesisOptions& opts, PassExecutor& exec) {
  util::Stopwatch total_clock;
  SynthesisResult result;

  // All interrupt sources — the deadline watchdog, a caller-supplied token,
  // and injected faults — funnel into one local token polled at every safe
  // point below. First cancel wins and carries the reason (kTimeout vs
  // kCancelled) into result.status.
  util::CancellationToken tok(opts.cancel);
  util::DeadlineWatchdog watchdog(&tok, opts.timeout_s);
  auto interrupted = [&] { return tok.cancelled(); };
  auto mark_interrupted = [&] {
    result.partial = true;
    result.timed_out = tok.reason() == util::StatusCode::kTimeout;
    result.status = util::Status(tok.reason(), "synthesis interrupted; returning best-so-far");
  };

  // --- Bucketize the space (§4.4). The executor owns the bucket states; the
  // driver keeps each bucket's summary as of its last completed pass.
  std::vector<BucketSummary> buckets(exec.bucket_count());
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] = exec.summary(i);
  result.initial_buckets = buckets.size();

  // --- Segment working set (§3.2). -----------------------------------------
  const auto seg_distance = [&](const trace::Segment& a, const trace::Segment& b) {
    return distance::compute(opts.metric, observed_series_pkts(a), observed_series_pkts(b),
                             opts.dopts);
  };
  trace::SegmentSampler sampler(&segments, seg_distance, opts.seed ^ 0x5e95a1d3);
  // The initial grow_to happens after the resume block below: a restored
  // sampler already contains its selection and RNG position.

  std::vector<ScoredHandler> candidates;  // every bucket-best ever seen
  int n = opts.initial_samples;
  int k = opts.initial_keep;
  std::vector<std::size_t> live(buckets.size());
  for (std::size_t i = 0; i < live.size(); ++i) live[i] = i;

  // Run one pass over the live buckets and fold the bucket bests the
  // executor reports complete into the global best and the candidate list,
  // in live (pre-sort) order, so equal-distance ties resolve identically
  // in-process and across workers instead of by task-completion order. An
  // interrupted pass folds what completed, so the loop always returns the
  // best handler found so far (§4.4).
  auto run_pass = [&](std::size_t target, int iter) {
    std::vector<std::size_t> complete;
    const util::Status st = exec.run_pass(live, target, sampler.selected(), iter, tok, &complete);
    for (std::size_t idx : complete) {
      buckets[idx] = exec.summary(idx);
      const ScoredHandler& bucket_best = buckets[idx].best;
      if (!bucket_best.valid()) continue;
      if (bucket_best.distance < result.best.distance) result.best = bucket_best;
      candidates.push_back(bucket_best);
    }
    return st;
  };
  auto is_interrupt = [](const util::Status& st) {
    return st.code() == util::StatusCode::kCancelled || st.code() == util::StatusCode::kTimeout;
  };

  // --- Checkpoint save/restore. ----------------------------------------------
  auto expr_text = [](const dsl::ExprPtr& e) { return e ? dsl::to_string(*e) : std::string(); };
  // Serialize the complete loop state so a resumed run is bit-identical to
  // an uninterrupted one. Called only between iterations, when no pass runs.
  auto save_state = [&](int next_iter) {
    Checkpoint ck;
    ck.pool_fingerprint = segment_pool_fingerprint(segments);
    ck.seed = opts.seed;
    ck.next_iter = next_iter;
    ck.n = n;
    ck.k = k;
    ck.best = {result.best.distance, expr_text(result.best.sketch), expr_text(result.best.handler)};
    ck.sampler_rng = sampler.rng_state();
    ck.sampler_selected = sampler.selected();
    ck.live = live;
    for (std::size_t i = 0; i < buckets.size(); ++i) ck.buckets.push_back(exec.snapshot(i));
    for (const auto& c : candidates) {
      ck.candidates.push_back({c.distance, expr_text(c.sketch), expr_text(c.handler)});
    }
    ck.iterations = result.iterations;
    if (auto st = save_checkpoint(ck, opts.checkpoint_path); !st.is_ok()) {
      // A failed checkpoint write must not kill the search itself; the
      // previous checkpoint (if any) is still intact thanks to tmp+rename.
      ABG_WARN("checkpoint save failed: %s", st.to_string().c_str());
    }
  };

  int start_iter = 0;
  bool resumed = false;
  if (opts.resume && !opts.checkpoint_path.empty()) {
    auto loaded = load_checkpoint(opts.checkpoint_path);
    if (!loaded.ok() && loaded.status().code() == util::StatusCode::kIoError) {
      // Missing/unreadable file: nothing to resume from, start fresh. This is
      // the normal first run of a `--checkpoint X --resume` batch job.
      ABG_INFO("no checkpoint at %s; starting fresh", opts.checkpoint_path.c_str());
    } else if (!loaded.ok()) {
      result.status = loaded.status().with_context("resume");
      return result;
    } else {
      const Checkpoint& ck = *loaded;
      if (ck.pool_fingerprint != segment_pool_fingerprint(segments) || ck.seed != opts.seed) {
        result.status = util::Status(util::StatusCode::kInvalidTrace,
                                     "checkpoint was written for a different segment pool or seed");
        return result;
      }
      bool consistent = ck.buckets.size() == buckets.size();
      for (std::size_t idx : ck.live) consistent = consistent && idx < buckets.size();
      for (const auto& bc : ck.buckets) {
        auto it = std::find_if(buckets.begin(), buckets.end(),
                               [&](const BucketSummary& b) { return b.label == bc.label; });
        const std::size_t idx = static_cast<std::size_t>(it - buckets.begin());
        if (it == buckets.end() || !exec.restore(idx, bc).is_ok()) {
          consistent = false;
          break;
        }
        buckets[idx] = exec.summary(idx);
      }
      // The running best may be empty; every candidate was a valid bucket
      // best when it was saved, and final validation replays its handler.
      auto restore_scored = [&](const ScoredHandlerCheckpoint& c, bool required) {
        auto r = parse_scored_handler(c.distance, c.sketch, c.handler);
        if (!r.ok() || (required && !r->valid())) {
          consistent = false;
          return ScoredHandler{};
        }
        return *r;
      };
      result.best = restore_scored(ck.best, false);
      for (const auto& c : ck.candidates) candidates.push_back(restore_scored(c, true));
      if (!consistent) {
        result.best = ScoredHandler{};
        result.status = util::Status(util::StatusCode::kParseError,
                                     "corrupted checkpoint " + opts.checkpoint_path);
        return result;
      }
      start_iter = ck.next_iter;
      n = ck.n;
      k = ck.k;
      live = ck.live;
      result.iterations = ck.iterations;
      sampler.restore(ck.sampler_selected, ck.sampler_rng);
      resumed = true;
      ABG_INFO("resumed from %s at iteration %d (%zu live buckets)",
               opts.checkpoint_path.c_str(), start_iter, live.size());
    }
  }
  if (!resumed) sampler.grow_to(static_cast<std::size_t>(opts.initial_segments));

  static auto& c_iters = obs::counter("synth.iterations");
  static auto& h_iter = obs::histogram("synth.iter_us");

  // Per-job labeled series (function-local statics would pin the first
  // job's labels; these are resolved once per run instead).
  obs::Counter* c_iters_job = nullptr;
  obs::Gauge* g_best_job = nullptr;
  if (!opts.obs_labels.empty()) {
    c_iters_job = &obs::counter("synth.iterations", opts.obs_labels);
    g_best_job = &obs::gauge("synth.best_distance", opts.obs_labels);
  }
  const bool journal_run = opts.journal && obs::journal_enabled();

  for (int iter = start_iter; iter < opts.max_iterations; ++iter) {
    if (live.empty()) break;
    // Injected-fault hook: ABG_FAULT_INJECT="cancel_after=N" fires here.
    if (util::fault::cancel_at(iter)) tok.cancel(util::StatusCode::kCancelled);
    if (iter > start_iter && interrupted()) {
      mark_interrupted();
      break;
    }
    util::Stopwatch iter_clock;
    c_iters.add();
    if (c_iters_job != nullptr) c_iters_job->add();
    obs::Timer iter_timer(h_iter);
    // One span per refinement iteration, with the loop's control variables
    // attached so a Perfetto view shows N/k/|working| shrinking.
    obs::JsonWriter iter_args;
    iter_args.begin_object();
    iter_args.key("iter");
    iter_args.value(static_cast<std::int64_t>(iter));
    iter_args.key("live_buckets");
    iter_args.value(static_cast<std::uint64_t>(live.size()));
    iter_args.key("n_target");
    iter_args.value(static_cast<std::int64_t>(n));
    iter_args.key("keep");
    iter_args.value(static_cast<std::int64_t>(k));
    iter_args.end_object();
    obs::TraceSpan iter_span("synth.iteration", "synth", iter_args.take());

    // Parallel bucket scoring (line 3 of Algorithm 1).
    const std::size_t segments_used =
        sampler.selected().empty() ? segments.size() : sampler.selected().size();
    if (auto st = run_pass(static_cast<std::size_t>(n), iter); !st.is_ok()) {
      if (!is_interrupt(st)) {
        result.status = st;
        return result;
      }
      mark_interrupted();
      break;
    }

    // Rank buckets by score.
    std::sort(live.begin(), live.end(), [&](std::size_t a, std::size_t b) {
      return buckets[a].best.distance < buckets[b].best.distance;
    });

    IterationReport report;
    report.n_target = n;
    report.keep = k;
    report.segments_used = segments_used;
    for (std::size_t idx : live) {
      BucketReport br;
      br.label = buckets[idx].label;
      br.score = buckets[idx].best.distance;
      br.sketches_enumerated = buckets[idx].sketches;
      br.handlers_scored = buckets[idx].handlers_scored;
      br.exhausted = buckets[idx].exhausted;
      report.buckets.push_back(std::move(br));
    }

    // only-top-k with ties (§4.4): retain buckets whose score <= k-th score.
    if (static_cast<std::size_t>(k) < live.size()) {
      const double kth = buckets[live[static_cast<std::size_t>(k) - 1]].best.distance;
      std::size_t cut = live.size();
      for (std::size_t i = static_cast<std::size_t>(k); i < live.size(); ++i) {
        if (buckets[live[i]].best.distance > kth) {
          cut = i;
          break;
        }
      }
      live.resize(cut);
    }
    for (auto& br : report.buckets) {
      br.retained = std::any_of(live.begin(), live.end(), [&](std::size_t idx) {
        return buckets[idx].label == br.label;
      });
    }
    report.seconds = iter_clock.elapsed_seconds();
    // Convergence point: the pass has joined, so result.best is settled for
    // this iteration.
    report.best_distance = result.best.distance;
    if (g_best_job != nullptr) g_best_job->set(report.best_distance);
    result.iterations.push_back(std::move(report));
    // Streamed progress for JobHandle subscribers; runs on this thread so
    // the callback may read the report without synchronization.
    if (opts.on_iteration) opts.on_iteration(result.iterations.back());
    // One funnel sample per iteration on the Perfetto counter tracks
    // (no-op unless both tracing and journaling are armed).
    if (journal_run) obs::journal_emit_trace_counters();

    ABG_INFO("iter %d: %zu buckets live, N=%d, best=%.3f (%s)", iter, live.size(), n,
             result.best.distance,
             result.best.valid() ? dsl::to_string(*result.best.handler).c_str() : "-");

    if (interrupted()) {
      mark_interrupted();
      break;
    }

    // Stop when every live bucket is already exhausted.
    const bool all_done = std::all_of(live.begin(), live.end(), [&](std::size_t idx) {
      return buckets[idx].exhausted;
    });
    if (all_done) break;

    // Terminal exhaustive phase: one bucket left.
    if (live.size() == 1) {
      if (auto st = run_pass(opts.exhaustive_cap, iter); !st.is_ok()) {
        if (!is_interrupt(st)) {
          result.status = st;
          return result;
        }
        mark_interrupted();
      }
      break;
    }

    n *= opts.sample_growth;                         // line 9
    k = std::max(k / 2, 1);                          // line 10
    sampler.grow_to(sampler.selected().size() + 2);  // "+2 traces" (§4.4)

    // State now describes the start of iteration iter+1 exactly.
    if (!opts.checkpoint_path.empty()) save_state(iter + 1);
  }

  // --- Final validation: re-rank every candidate on a larger diverse
  // segment sample, so a handler over-fit to the small working set cannot
  // win (§3.2).
  // Skipped on interruption: a preempted run must return promptly, and its
  // partial/status flags tell the caller `best` skipped this re-ranking.
  if (!result.partial && !candidates.empty() && !segments.empty()) {
    obs::TraceSpan val_span("synth.validation", "synth");
    static auto& c_validated = obs::counter("synth.candidates_validated");
    sampler.grow_to(opts.final_validation_segments);
    std::vector<trace::Segment> validation;
    for (std::size_t idx : sampler.selected()) validation.push_back(segments[idx]);
    // Deduplicate candidates by rendered handler.
    std::vector<ScoredHandler> unique;
    std::vector<std::size_t> hashes;
    for (const auto& c : candidates) {
      const std::size_t h = dsl::hash_expr(*c.handler);
      if (std::find(hashes.begin(), hashes.end(), h) != hashes.end()) continue;
      hashes.push_back(h);
      unique.push_back(c);
    }
    result.candidates_validated = unique.size();
    c_validated.add(unique.size());
    // Every unique candidate is scored exactly, so validation's work is a
    // function of the candidate list alone, not of which task finishes
    // first. The winner is the minimum by (distance, candidate index), the
    // first-wins order of the candidate list.
    std::vector<double> dist(unique.size());
    exec.pool().parallel_for(unique.size(), [&](std::size_t i) {
      dist[i] = total_distance(*unique[i].handler, validation, opts.metric, opts.dopts);
    });
    ScoredHandler winner;
    for (std::size_t i = 0; i < unique.size(); ++i) {
      if (dist[i] < winner.distance || (!winner.valid() && dist[i] == winner.distance)) {
        winner = unique[i];
        winner.distance = dist[i];
      }
    }
    if (winner.valid()) result.best = winner;
  }

  // The run winner, flagged kJournalFinal. Recorded under a fresh scope
  // (bucket 0 = none, iter = iterations completed) — validation itself is
  // not journaled, so this is the only event past the refinement loop.
  if (journal_run && result.best.valid() && result.best.sketch) {
    obs::JournalScope scope(journal_job_id(opts), 0,
                            static_cast<std::uint32_t>(result.iterations.size()));
    obs::journal_record_selected(dsl::hash_expr(*result.best.sketch), result.best.fingerprint,
                                 result.best.distance,
                                 obs::journal_intern(dsl::to_string(*result.best.handler)),
                                 true);
    obs::journal_emit_trace_counters();
  }

  for (const auto& b : buckets) {
    result.total_sketches += b.sketches;
    result.total_handlers_scored += b.handlers_scored;
  }
  result.seconds = total_clock.elapsed_seconds();
  return result;
}

}  // namespace abg::synth
