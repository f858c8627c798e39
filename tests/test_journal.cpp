// Search-forensics journal tests (ISSUE 6).
//
// The SchedulerJournal* suite is Z3-free and simulator-free on purpose: CI
// runs `abg_tests_api --gtest_filter='Scheduler*'` under ThreadSanitizer, so
// the ring-buffer SPSC protocol, the overflow path, and cross-thread
// provenance under work stealing are all raced there. Keep synthesis out of
// SchedulerJournal* tests.
//
// The JournalFunnel* suite is the golden reconciliation the acceptance bar
// demands: a full (quick-scale) reno synthesis with journaling on, whose
// funnel totals must match SynthesisResult exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dsl/dsl.hpp"
#include "net/simulator.hpp"
#include "obs/journal.hpp"
#include "synth/refinement.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace abg {
namespace {

using obs::JournalKind;

std::uint64_t kind_count(const obs::JournalFile& jf, JournalKind k) {
  std::uint64_t n = 0;
  for (const auto& r : jf.records) {
    if (r.kind == static_cast<std::uint8_t>(k)) ++n;
  }
  return n;
}

// Arms the journal for one test and guarantees it is disarmed (and the file
// removed) even on assertion failure, so a failing test cannot wedge the
// process-wide singleton for the tests after it.
class JournalSession {
 public:
  explicit JournalSession(const std::string& name, obs::JournalOptions opts = {}) {
    opts.path = testing::TempDir() + "/" + name;
    std::string err;
    started_ = obs::journal_start(opts, &err);
    EXPECT_TRUE(started_) << err;
    path_ = opts.path;
  }
  ~JournalSession() {
    stop();
    std::remove(path_.c_str());
  }

  obs::JournalStats stop() {
    if (!stopped_) stats_ = obs::journal_stop();
    stopped_ = true;
    return stats_;
  }

  const std::string& path() const { return path_; }
  bool started() const { return started_; }

 private:
  std::string path_;
  bool started_ = false;
  bool stopped_ = false;
  obs::JournalStats stats_;
};

// --- Disarmed behavior ------------------------------------------------------

TEST(SchedulerJournal, DisarmedEmissionIsInert) {
  ASSERT_FALSE(obs::journal_enabled());
  // Every entry point must be a no-op without an armed journal: no crash, no
  // state. This is the zero-cost-when-off contract's functional half.
  obs::JournalScope scope(obs::journal_intern("job"), 0, 0);
  EXPECT_FALSE(obs::journal_in_scope());
  obs::journal_begin_candidate(1, 2);
  EXPECT_FALSE(obs::journal_in_candidate());
  obs::journal_record_candidate(JournalKind::kEnumerated, 1.0, 0);
  obs::journal_record_distance(JournalKind::kDtwEval, 1.0, 10);
  obs::journal_record_sketch(3);
  obs::journal_end_candidate();
  const auto s = obs::journal_summary();
  EXPECT_FALSE(s.enabled);
}

// --- Round trip -------------------------------------------------------------

TEST(SchedulerJournal, RoundTripPreservesRecordsAndProvenance) {
  JournalSession session("journal_roundtrip.journal");
  ASSERT_TRUE(session.started());

  const std::uint32_t job = obs::journal_intern("reno-job");
  const std::uint32_t bucket = obs::journal_intern("{+,*}");
  const std::uint32_t handler = obs::journal_intern("cwnd + reno-inc");
  {
    obs::JournalScope scope(job, bucket, 3);
    ASSERT_TRUE(obs::journal_in_scope());
    obs::journal_record_sketch(0xabcdef);
    obs::journal_begin_candidate(0xabcdef, 0x1111);
    ASSERT_TRUE(obs::journal_in_candidate());
    obs::journal_record_candidate(JournalKind::kEnumerated, 9.0, 0);
    obs::journal_set_segment(2);
    obs::journal_record_distance(JournalKind::kDtwEval, 0.25, 640);
    EXPECT_EQ(obs::journal_take_cells(), 640u);
    obs::journal_record_candidate(JournalKind::kEvaluated, 0.25, 640);
    obs::journal_end_candidate();
    obs::journal_record_selected(0xabcdef, 0x1111, 0.25, handler, /*final_winner=*/true);
  }
  EXPECT_FALSE(obs::journal_in_scope());

  const auto live = obs::journal_summary();
  EXPECT_TRUE(live.enabled);
  EXPECT_EQ(live.recorded, 5u);

  const auto stats = session.stop();
  EXPECT_EQ(stats.recorded, 5u);
  EXPECT_EQ(stats.dropped, 0u);

  obs::JournalFile jf;
  std::string err;
  ASSERT_TRUE(obs::read_journal(session.path(), &jf, &err)) << err;
  ASSERT_EQ(jf.records.size(), 5u);
  EXPECT_EQ(jf.dropped, 0u);

  for (const auto& r : jf.records) {
    EXPECT_EQ(jf.str(r.job), "reno-job");
    EXPECT_EQ(jf.str(r.bucket), "{+,*}");
    EXPECT_EQ(r.iter, 3u);
    EXPECT_EQ(r.sketch, 0xabcdefu);
  }
  EXPECT_EQ(kind_count(jf, JournalKind::kSketch), 1u);
  EXPECT_EQ(kind_count(jf, JournalKind::kEnumerated), 1u);
  EXPECT_EQ(kind_count(jf, JournalKind::kDtwEval), 1u);
  EXPECT_EQ(kind_count(jf, JournalKind::kEvaluated), 1u);
  EXPECT_EQ(kind_count(jf, JournalKind::kSelected), 1u);

  for (const auto& r : jf.records) {
    if (r.kind == static_cast<std::uint8_t>(JournalKind::kDtwEval)) {
      EXPECT_EQ(r.segment, 2u);
      EXPECT_EQ(r.cells, 640u);
      EXPECT_EQ(r.distance, 0.25);
      EXPECT_EQ(r.candidate, 0x1111u);
    }
    if (r.kind == static_cast<std::uint8_t>(JournalKind::kSelected)) {
      EXPECT_EQ(jf.str(r.detail), "cwnd + reno-inc");
      EXPECT_EQ(r.flags & obs::kJournalFinal, obs::kJournalFinal);
    }
  }
}

TEST(SchedulerJournal, ScopeRestoresOuterProvenanceAndRejectsOutOfScopeEvents) {
  JournalSession session("journal_scopes.journal");
  ASSERT_TRUE(session.started());

  // Events outside any scope are rejected — the rule that keeps the
  // classifier and final validation out of the funnel.
  obs::journal_record_sketch(7);
  obs::journal_begin_candidate(7, 8);
  EXPECT_FALSE(obs::journal_in_candidate());
  obs::journal_record_candidate(JournalKind::kEnumerated, 1.0, 0);

  const std::uint32_t outer = obs::journal_intern("outer");
  const std::uint32_t inner = obs::journal_intern("inner");
  {
    obs::JournalScope a(outer, 0, 1);
    obs::journal_begin_candidate(100, 200);
    ASSERT_TRUE(obs::journal_in_candidate());
    {
      // A nested scope (engine drivers re-scoping on a stolen task) masks the
      // outer candidate entirely and restores it on exit.
      obs::JournalScope b(inner, 0, 2);
      EXPECT_FALSE(obs::journal_in_candidate());
      obs::journal_record_sketch(300);
    }
    EXPECT_TRUE(obs::journal_in_candidate());
    obs::journal_record_candidate(JournalKind::kEvaluated, 4.0, 0);
    obs::journal_end_candidate();
  }

  const auto stats = session.stop();
  EXPECT_EQ(stats.recorded, 2u);

  obs::JournalFile jf;
  std::string err;
  ASSERT_TRUE(obs::read_journal(session.path(), &jf, &err)) << err;
  ASSERT_EQ(jf.records.size(), 2u);
  for (const auto& r : jf.records) {
    if (r.kind == static_cast<std::uint8_t>(JournalKind::kSketch)) {
      EXPECT_EQ(jf.str(r.job), "inner");
      EXPECT_EQ(r.iter, 2u);
    } else {
      EXPECT_EQ(jf.str(r.job), "outer");
      EXPECT_EQ(r.iter, 1u);
      EXPECT_EQ(r.candidate, 200u);
    }
  }
}

// --- Overflow ---------------------------------------------------------------

TEST(SchedulerJournal, RingOverflowDropsAndCountsInsteadOfBlocking) {
  obs::JournalOptions opts;
  opts.ring_capacity = 64;
  // Park the drainer well past the burst below, so the ring genuinely fills.
  opts.drain_interval_ms = 500;
  JournalSession session("journal_overflow.journal", opts);
  ASSERT_TRUE(session.started());

  constexpr std::uint64_t kBurst = 1000;
  {
    obs::JournalScope scope(obs::journal_intern("burst"), 0, 0);
    obs::journal_begin_candidate(1, 2);
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      obs::journal_record_candidate(JournalKind::kEnumerated, static_cast<double>(i), 0);
    }
    obs::journal_end_candidate();
  }

  const auto stats = session.stop();
  // Emission never blocks: every event is either recorded or counted dropped.
  EXPECT_EQ(stats.recorded + stats.dropped, kBurst);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GE(stats.recorded, opts.ring_capacity);

  obs::JournalFile jf;
  std::string err;
  ASSERT_TRUE(obs::read_journal(session.path(), &jf, &err)) << err;
  EXPECT_EQ(jf.records.size(), stats.recorded);
  EXPECT_EQ(jf.dropped, stats.dropped);  // persisted in the trailer
}

// --- Attribution under work stealing ----------------------------------------

TEST(SchedulerJournal, StolenTasksAttributeToTheSubmittingJob) {
  obs::JournalOptions opts;
  opts.ring_capacity = 1 << 16;  // ample: this test asserts zero drops
  JournalSession session("journal_stealing.journal", opts);
  ASSERT_TRUE(session.started());

  // Two drivers share one pool, as concurrent Engine jobs do; each task
  // installs its own scope, so a worker that steals it self-attributes.
  constexpr std::size_t kN = 2000;
  util::ThreadPool pool(4);
  const std::uint32_t jobs[2] = {obs::journal_intern("job-a"), obs::journal_intern("job-b")};
  const std::uint32_t buckets[2] = {obs::journal_intern("{a}"), obs::journal_intern("{b}")};
  std::vector<std::thread> drivers;
  for (int d = 0; d < 2; ++d) {
    drivers.emplace_back([&, d] {
      pool.parallel_for(kN, [&, d](std::size_t i) {
        obs::JournalScope scope(jobs[d], buckets[d], static_cast<std::uint32_t>(d));
        obs::journal_begin_candidate(d + 1, i + 1);
        obs::journal_record_candidate(JournalKind::kEnumerated, static_cast<double>(i), 0);
        obs::journal_end_candidate();
      });
    });
  }
  for (auto& t : drivers) t.join();

  const auto stats = session.stop();
  ASSERT_EQ(stats.dropped, 0u);
  ASSERT_EQ(stats.recorded, 2 * kN);

  obs::JournalFile jf;
  std::string err;
  ASSERT_TRUE(obs::read_journal(session.path(), &jf, &err)) << err;
  ASSERT_EQ(jf.records.size(), 2 * kN);

  // Exactly one event per (job, index); job/bucket/iter always travel
  // together — a single cross-wired record fails the set equality.
  std::set<std::pair<std::string, std::uint64_t>> seen;
  for (const auto& r : jf.records) {
    const std::string job = jf.str(r.job);
    ASSERT_TRUE(job == "job-a" || job == "job-b") << job;
    const int d = job == "job-a" ? 0 : 1;
    EXPECT_EQ(jf.str(r.bucket), d == 0 ? "{a}" : "{b}");
    EXPECT_EQ(r.iter, static_cast<std::uint32_t>(d));
    EXPECT_EQ(r.sketch, static_cast<std::uint64_t>(d) + 1);
    EXPECT_TRUE(seen.emplace(job, r.candidate).second)
        << "duplicate event for " << job << " candidate " << r.candidate;
  }
  EXPECT_EQ(seen.size(), 2 * kN);
}

TEST(SchedulerJournal, SplitByJobDemultiplexesABatchJournal) {
  JournalSession session("journal_split.journal");
  ASSERT_TRUE(session.started());

  const std::uint32_t job_a = obs::journal_intern("alpha");
  const std::uint32_t job_b = obs::journal_intern("beta/..");  // sanitized name
  for (int i = 0; i < 3; ++i) {
    obs::JournalScope scope(job_a, 0, 0);
    obs::journal_record_sketch(10 + i);
  }
  for (int i = 0; i < 2; ++i) {
    obs::JournalScope scope(job_b, 0, 0);
    obs::journal_record_sketch(20 + i);
  }
  {
    // Job id 0 (no attribution) is skipped by the splitter.
    obs::JournalScope scope(0, 0, 0);
    obs::journal_record_sketch(30);
  }
  session.stop();

  std::string err;
  const auto parts = obs::split_journal_by_job(session.path(), &err);
  ASSERT_EQ(parts.size(), 2u) << err;

  std::uint64_t total = 0;
  for (const auto& part : parts) {
    obs::JournalFile jf;
    ASSERT_TRUE(obs::read_journal(part, &jf, &err)) << part << ": " << err;
    ASSERT_FALSE(jf.records.empty());
    const std::string job = jf.str(jf.records[0].job);
    for (const auto& r : jf.records) EXPECT_EQ(jf.str(r.job), job);
    total += jf.records.size();
    EXPECT_EQ(jf.records.size(), job == "alpha" ? 3u : 2u);
    std::remove(part.c_str());
  }
  EXPECT_EQ(total, 5u);
}

// --- Sampling ---------------------------------------------------------------

TEST(SchedulerJournal, SampleEveryThinsCandidatesDeterministically) {
  obs::JournalOptions opts;
  opts.sample_every = 4;
  JournalSession session("journal_sampled.journal", opts);
  ASSERT_TRUE(session.started());

  constexpr std::uint64_t kCandidates = 100;
  std::uint64_t expected = 0;
  {
    obs::JournalScope scope(obs::journal_intern("sampled"), 0, 0);
    for (std::uint64_t fp = 1; fp <= kCandidates; ++fp) {
      obs::journal_begin_candidate(9, fp);
      if (fp % opts.sample_every == 0) ++expected;
      EXPECT_EQ(obs::journal_candidate_sampled(), fp % opts.sample_every == 0);
      obs::journal_record_candidate(JournalKind::kEnumerated, 0.0, 0);
      obs::journal_end_candidate();
    }
  }
  const auto stats = session.stop();
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(stats.recorded, expected);  // sampling is by fingerprint, not luck
}

// --- Golden funnel reconciliation (Z3; excluded from the TSan filter) -------

std::vector<trace::Segment> reno_segments() {
  static const auto segments = [] {
    trace::Environment env;
    env.bandwidth_bps = 10e6;
    env.rtt_s = 0.04;
    env.duration_s = 10.0;
    env.seed = 21;
    auto t = net::run_connection("reno", env);
    return trace::segment_all({trace::trim_warmup(t, 2.0)}, 20);
  }();
  return segments;
}

synth::SynthesisOptions quick_opts() {
  synth::SynthesisOptions o;
  o.initial_samples = 6;
  o.initial_keep = 3;
  o.initial_segments = 2;
  o.concretize_budget = 12;
  o.max_iterations = 3;
  o.exhaustive_cap = 60;
  o.max_depth = 3;
  o.max_nodes = 5;
  o.max_holes = 2;
  o.threads = 2;
  o.seed = 5;
  return o;
}

TEST(JournalFunnel, TotalsReconcileExactlyWithSynthesisResult) {
  auto segs = reno_segments();
  ASSERT_GE(segs.size(), 3u);

  obs::JournalOptions jopts;
  jopts.ring_capacity = 1 << 17;  // exact reconciliation needs zero drops
  JournalSession session("journal_funnel.journal", jopts);
  ASSERT_TRUE(session.started());

  synth::SynthesisOptions opts = quick_opts();
  opts.obs_labels = {{"job", "golden"}};
  const auto result = synth::synthesize(dsl::reno_dsl(), segs, opts);
  const auto stats = session.stop();
  ASSERT_TRUE(result.best.valid());
  ASSERT_EQ(stats.dropped, 0u);

  auto kind = [&stats](JournalKind k) { return stats.by_kind[static_cast<std::size_t>(k)]; };

  // The identities abg_inspect's `funnel --check` enforces in CI. Exact by
  // design at sample_every = 1: every scored handler journals exactly one
  // kEnumerated plus exactly one terminal event, and every enumerator sketch
  // journals one kSketch.
  EXPECT_EQ(kind(JournalKind::kEnumerated), result.total_handlers_scored);
  EXPECT_EQ(kind(JournalKind::kSketch), result.total_sketches);
  EXPECT_EQ(kind(JournalKind::kEvaluated) + kind(JournalKind::kAbandoned),
            kind(JournalKind::kEnumerated));
  EXPECT_EQ(kind(JournalKind::kCacheHit), 0u);  // retired kind: never emitted

  obs::JournalFile jf;
  std::string err;
  ASSERT_TRUE(obs::read_journal(session.path(), &jf, &err)) << err;
  ASSERT_EQ(jf.records.size(), stats.recorded);

  // The run winner is journaled, attributed, and carries the handler text.
  const obs::JournalRecord* final_sel = nullptr;
  for (const auto& r : jf.records) {
    if (r.kind == static_cast<std::uint8_t>(JournalKind::kSelected) &&
        (r.flags & obs::kJournalFinal) != 0) {
      EXPECT_EQ(final_sel, nullptr) << "multiple final selections";
      final_sel = &r;
    }
  }
  ASSERT_NE(final_sel, nullptr);
  EXPECT_EQ(jf.str(final_sel->detail), dsl::to_string(*result.best.handler));
  EXPECT_EQ(final_sel->distance, result.best.distance);
  EXPECT_EQ(jf.str(final_sel->job), "golden");

  // Terminal events carry the exact distance/abandon semantics: evaluated
  // records are finite, abandoned records are +inf.
  for (const auto& r : jf.records) {
    if (r.kind == static_cast<std::uint8_t>(JournalKind::kEvaluated)) {
      EXPECT_TRUE(std::isfinite(r.distance));
    }
    if (r.kind == static_cast<std::uint8_t>(JournalKind::kAbandoned)) {
      EXPECT_TRUE(std::isinf(r.distance));
    }
  }
}

TEST(JournalFunnel, OptOutRunEmitsNothingWhileArmed) {
  auto segs = reno_segments();
  ASSERT_GE(segs.size(), 3u);

  JournalSession session("journal_optout.journal");
  ASSERT_TRUE(session.started());

  synth::SynthesisOptions opts = quick_opts();
  opts.journal = false;  // the per-job manifest knob
  const auto result = synth::synthesize(dsl::reno_dsl(), segs, opts);
  const auto stats = session.stop();
  ASSERT_TRUE(result.best.valid());
  EXPECT_EQ(stats.recorded, 0u);
  EXPECT_EQ(stats.dropped, 0u);
}

}  // namespace
}  // namespace abg
