// Tests for the abg::api facade (batch Engine, JobSpec validation, manifest
// parsing) and the work-stealing ThreadPool scheduler it runs on.
//
// The Scheduler* suite is deliberately Z3-free and simulator-free: CI runs
// exactly that filter under ThreadSanitizer (`abg_tests_api
// --gtest_filter='Scheduler*'`), where instrumenting the prebuilt solver is
// not an option. Keep new scheduler/concurrency tests inside that prefix and
// keep synthesis out of them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "abg/abagnale.hpp"
#include "net/simulator.hpp"
#include "util/json_parse.hpp"

namespace abg {
namespace {

// --- Scheduler: templated parallel_for + work stealing (Z3-free). ----------

TEST(Scheduler, ParallelForRunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(Scheduler, ParallelForHandlesEdgeSizes) {
  util::ThreadPool pool(2);
  int zero_calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++zero_calls; });
  EXPECT_EQ(zero_calls, 0);

  std::atomic<int> one_calls{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    one_calls.fetch_add(1);
  });
  EXPECT_EQ(one_calls.load(), 1);

  // More work items than workers, fewer work items than workers.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(3, [&](std::size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 6u);
}

// The old signature (`const std::function<void(std::size_t)>&`) could not
// accept a move-only callable at all — this test is a compile-time proof the
// loop is now templated, plus a runtime check that captured state survives.
TEST(Scheduler, ParallelForAcceptsMoveOnlyCallable) {
  util::ThreadPool pool(2);
  auto token = std::make_unique<int>(41);
  std::atomic<int> seen{0};
  pool.parallel_for(8, [token = std::move(token), &seen](std::size_t) {
    seen.fetch_add(*token);
  });
  EXPECT_EQ(seen.load(), 8 * 41);
}

TEST(Scheduler, ParallelForPropagatesFirstException) {
  util::ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 13) throw std::runtime_error("boom");
      completed.fetch_add(1);
    });
    FAIL() << "expected the worker exception to rethrow on the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Every non-throwing index still ran: an exception must not strand the
  // remaining tasks (the pool would deadlock on them at destruction).
  EXPECT_EQ(completed.load(), 63);
}

TEST(Scheduler, ParallelForNestsWithoutDeadlock) {
  // A parallel_for issued from inside a pool task must complete even when
  // every worker is busy: the issuing task participates (caller-runs), so
  // progress never depends on a free worker. This is the property that lets
  // Engine drivers run jobs' loops on a fully loaded shared pool.
  util::ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32u);
}

TEST(Scheduler, ConcurrentParallelForsFromManyThreads) {
  // Several external threads driving loops on one pool, as concurrent batch
  // jobs do. Each loop's own indices must stay exact under work stealing.
  util::ThreadPool pool(4);
  constexpr int kDrivers = 6;
  constexpr std::size_t kN = 2'000;
  std::vector<std::vector<std::atomic<int>>> counts(kDrivers);
  for (auto& c : counts) c = std::vector<std::atomic<int>>(kN);
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      pool.parallel_for(kN, [&, d](std::size_t i) { counts[d][i].fetch_add(1); });
    });
  }
  for (auto& t : drivers) t.join();
  for (int d = 0; d < kDrivers; ++d) {
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(counts[d][i].load(), 1) << "driver " << d << " index " << i;
    }
  }
}

TEST(Scheduler, SubmitReturnsFutureResult) {
  util::ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  auto g = pool.submit([] { return std::string("stolen"); });
  EXPECT_EQ(f.get(), 42);
  EXPECT_EQ(g.get(), "stolen");
}

TEST(Scheduler, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool joins only after every queued task executed
  EXPECT_EQ(ran.load(), 200);
}

// --- Option and spec validation. -------------------------------------------

TEST(ApiValidation, SynthesisOptionsCatchesBadFields) {
  synth::SynthesisOptions ok;
  EXPECT_TRUE(ok.validate().is_ok());

  synth::SynthesisOptions o = ok;
  o.initial_samples = 0;
  EXPECT_EQ(o.validate().code(), util::StatusCode::kInvalidArgument);

  o = ok;
  o.timeout_s = -1.0;
  EXPECT_EQ(o.validate().code(), util::StatusCode::kInvalidArgument);

  o = ok;
  o.resume = true;  // no checkpoint path
  EXPECT_EQ(o.validate().code(), util::StatusCode::kInvalidArgument);

  o = ok;
  o.max_depth = 0;
  EXPECT_EQ(o.validate().code(), util::StatusCode::kInvalidArgument);
}

TEST(ApiValidation, PipelineOptionsRejectsUnknownDsl) {
  core::PipelineOptions o;
  o.dsl_override = "no-such-dsl";
  const auto st = o.validate();
  EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(st.to_string().find("no-such-dsl"), std::string::npos);
}

TEST(ApiValidation, JobSpecNeedsInputAndConsistentSources) {
  EXPECT_EQ(api::JobSpec().validate().code(), util::StatusCode::kInvalidArgument);

  // Pre-segmented input without a DSL: nothing left to classify.
  api::JobSpec segs_only;
  segs_only.segments.emplace_back();
  EXPECT_EQ(segs_only.validate().code(), util::StatusCode::kInvalidArgument);
  segs_only.with_dsl("reno");
  EXPECT_TRUE(segs_only.validate().is_ok());

  // Segments and raw traces are mutually exclusive.
  segs_only.add_trace_path("x.csv");
  EXPECT_EQ(segs_only.validate().code(), util::StatusCode::kInvalidArgument);

  // mister880 requires an explicit DSL.
  api::JobSpec m;
  m.with_kind(api::JobSpec::Kind::kMister880).add_trace_path("x.csv");
  EXPECT_EQ(m.validate().code(), util::StatusCode::kInvalidArgument);
  m.with_dsl("reno");
  EXPECT_TRUE(m.validate().is_ok());
}

TEST(ApiValidation, EngineRejectsBadSpecEagerly) {
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto h = engine.submit(api::JobSpec().with_name("broken"));  // no input
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(h.status().to_string().find("broken"), std::string::npos);
  EXPECT_EQ(engine.jobs_submitted(), 0u);

  // submit_all is all-or-nothing: one bad spec rejects the whole batch.
  std::vector<api::JobSpec> specs(2);
  specs[0].segments.emplace_back();
  specs[0].with_dsl("reno");
  auto hs = engine.submit_all(std::move(specs));
  ASSERT_FALSE(hs.ok());
  EXPECT_EQ(engine.jobs_submitted(), 0u);
}

// --- Manifest parsing. ------------------------------------------------------

TEST(Manifest, ParsesEngineAndJobFields) {
  const char* text = R"({
    "threads": 8, "max_concurrent_jobs": 2,
    "report": "out.json",
    "jobs": [
      {"name": "reno", "traces": ["a.csv", "b.csv"], "dsl": "reno",
       "timeout_s": 30, "seed": 11, "metric": "euclidean",
       "max_iterations": 2, "initial_samples": 4, "max_holes": 1,
       "repair_traces": true},
      {"traces": ["c.csv"], "kind": "mister880", "dsl": "cubic"}
    ]
  })";
  auto m = api::parse_manifest(text);
  ASSERT_TRUE(m.ok()) << m.status().to_string();
  EXPECT_EQ(m->engine.threads, 8u);
  EXPECT_EQ(m->engine.max_concurrent_jobs, 2u);
  EXPECT_EQ(m->report_path, "out.json");
  ASSERT_EQ(m->jobs.size(), 2u);

  const auto& j0 = m->jobs[0];
  EXPECT_EQ(j0.name, "reno");
  ASSERT_EQ(j0.trace_paths.size(), 2u);
  EXPECT_EQ(*j0.pipeline.dsl_override, "reno");
  EXPECT_EQ(j0.pipeline.synth.timeout_s, 30.0);
  EXPECT_EQ(j0.pipeline.synth.seed, 11u);
  EXPECT_EQ(j0.pipeline.synth.metric, distance::Metric::kEuclidean);
  EXPECT_EQ(j0.pipeline.synth.max_iterations, 2);
  EXPECT_EQ(j0.pipeline.synth.initial_samples, 4);
  EXPECT_EQ(j0.pipeline.synth.max_holes, 1);
  EXPECT_TRUE(j0.load.repair);
  EXPECT_TRUE(j0.validate().is_ok());

  EXPECT_EQ(m->jobs[1].kind, api::JobSpec::Kind::kMister880);
}

TEST(Manifest, RejectsStructuralMistakes) {
  // Unknown keys anywhere are errors, not silently ignored defaults.
  EXPECT_EQ(api::parse_manifest(R"({"jobz": []})").status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(api::parse_manifest(
                R"({"jobs": [{"traces": ["a.csv"], "timeout": 5}]})")
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
  // Type mismatches.
  EXPECT_EQ(api::parse_manifest(R"({"jobs": [{"traces": "a.csv"}]})").status().code(),
            util::StatusCode::kInvalidArgument);
  // Empty sweeps and syntax errors.
  EXPECT_EQ(api::parse_manifest(R"({"jobs": []})").status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(api::parse_manifest("{").status().code(), util::StatusCode::kParseError);
  // Error context names the offending job.
  const auto st = api::parse_manifest(R"({"jobs": [{"traces": ["a.csv"]},
                                                   {"traces": []}]})")
                      .status();
  EXPECT_NE(st.to_string().find("jobs[1]"), std::string::npos);
}

// Specs stored before the "fast_path" key was retired (serve job specs,
// worker specs) still parse: the key is type-checked, then ignored, and never
// emitted again.
TEST(Manifest, RetiredFastPathKeyParsesAndIsNotReEmitted) {
  auto spec = api::spec_from_json(
      R"({"name": "old", "traces": ["a.csv"], "dsl": "reno", "fast_path": false})");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  EXPECT_EQ(spec->name, "old");
  const std::string emitted = api::spec_to_json(*spec);
  EXPECT_EQ(emitted.find("fast_path"), std::string::npos) << emitted;
  auto again = api::spec_from_json(emitted);
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_EQ(api::spec_to_json(*again), emitted);
  // Still a bool: a malformed value is an error, as before.
  EXPECT_EQ(api::spec_from_json(R"({"traces": ["a.csv"], "fast_path": 1})").status().code(),
            util::StatusCode::kInvalidArgument);
}

// --- Engine end-to-end (uses the synthesis loop, so Z3 territory). ----------

std::vector<trace::Segment> cca_segments(const char* cca, std::uint64_t seed) {
  trace::Environment env;
  env.bandwidth_bps = 10e6;
  env.rtt_s = 0.04;
  env.duration_s = 10.0;
  env.seed = seed;
  auto t = net::run_connection(cca, env);
  return trace::segment_all({trace::trim_warmup(t, 2.0)}, 20);
}

synth::SynthesisOptions quick_opts() {
  synth::SynthesisOptions o;
  o.initial_samples = 6;
  o.initial_keep = 3;
  o.initial_segments = 2;
  o.concretize_budget = 12;
  o.max_iterations = 2;
  o.exhaustive_cap = 60;
  o.max_depth = 3;
  o.max_nodes = 5;
  o.max_holes = 2;
  o.threads = 2;
  o.seed = 5;
  return o;
}

api::JobSpec quick_job(const std::string& name, const dsl::Dsl& d,
                       std::vector<trace::Segment> segs) {
  api::JobSpec spec;
  spec.with_name(name).with_custom_dsl(d).with_segments(std::move(segs));
  spec.pipeline.synth = quick_opts();
  return spec;
}

void expect_same_synthesis(const synth::SynthesisResult& a, const synth::SynthesisResult& b,
                           const std::string& label) {
  ASSERT_EQ(a.best.valid(), b.best.valid()) << label;
  if (a.best.valid()) {
    EXPECT_EQ(dsl::to_string(*a.best.handler), dsl::to_string(*b.best.handler)) << label;
    EXPECT_EQ(a.best.distance, b.best.distance) << label;  // exact, not approximate
  }
  EXPECT_EQ(a.total_sketches, b.total_sketches) << label;
  EXPECT_EQ(a.total_handlers_scored, b.total_handlers_scored) << label;
  EXPECT_EQ(a.candidates_validated, b.candidates_validated) << label;
  ASSERT_EQ(a.iterations.size(), b.iterations.size()) << label;
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    ASSERT_EQ(a.iterations[i].buckets.size(), b.iterations[i].buckets.size()) << label;
    for (std::size_t j = 0; j < a.iterations[i].buckets.size(); ++j) {
      EXPECT_EQ(a.iterations[i].buckets[j].label, b.iterations[i].buckets[j].label) << label;
      EXPECT_EQ(a.iterations[i].buckets[j].score, b.iterations[i].buckets[j].score)
          << label << " iter " << i << " rank " << j;
    }
  }
}

// The batch acceptance criterion: a 4-job batch on a shared pool produces
// bit-identical results to the same 4 jobs run sequentially through the
// legacy entry point.
TEST(EngineGolden, FourJobBatchMatchesSequentialRuns) {
  struct Case {
    const char* name;
    const dsl::Dsl dsl;
    std::vector<trace::Segment> segs;
  };
  std::vector<Case> cases;
  cases.push_back({"reno-a", dsl::reno_dsl(), cca_segments("reno", 21)});
  cases.push_back({"reno-b", dsl::reno_dsl(), cca_segments("reno", 22)});
  cases.push_back({"cubic-a", dsl::cubic_dsl(), cca_segments("cubic", 23)});
  cases.push_back({"reno-c", dsl::reno_dsl(), cca_segments("reno", 24)});

  std::vector<synth::SynthesisResult> sequential;
  for (const auto& c : cases) {
    sequential.push_back(synth::synthesize(c.dsl, c.segs, quick_opts()));
  }

  api::Engine engine({.threads = 4, .max_concurrent_jobs = 2});
  std::vector<api::JobHandle> handles;
  for (const auto& c : cases) {
    auto h = engine.submit(quick_job(c.name, c.dsl, c.segs));
    ASSERT_TRUE(h.ok()) << h.status().to_string();
    handles.push_back(*h);
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const api::JobResult& r = handles[i].wait();
    ASSERT_TRUE(r.ok()) << r.status.to_string();
    EXPECT_EQ(r.name, cases[i].name);
    expect_same_synthesis(sequential[i], r.pipeline.synthesis, cases[i].name);
  }
}

TEST(Engine, PollWaitAndStreamedIterations) {
  const auto segs = cca_segments("reno", 21);
  std::atomic<int> streamed{0};
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto spec = quick_job("watched", dsl::reno_dsl(), segs);
  spec.with_iteration_callback([&](const synth::IterationReport&) { streamed.fetch_add(1); });
  auto h = engine.submit(std::move(spec));
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->valid());
  EXPECT_EQ(h->name(), "watched");

  const api::JobResult& r = h->wait();
  EXPECT_EQ(h->state(), api::JobState::kDone);
  ASSERT_NE(h->poll(), nullptr);
  EXPECT_EQ(h->poll(), &r);  // poll and wait expose the same record
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<std::size_t>(streamed.load()),
            r.pipeline.synthesis.iterations.size());
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_EQ(r.exit_class(), 0);
}

TEST(Engine, CancelPreemptsJobWithBestSoFar) {
  const auto segs = cca_segments("reno", 21);
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});

  // Park the driver on a long-ish first job, then cancel the queued second
  // job before it starts; it must come back cancelled, not run to completion.
  auto first = engine.submit(quick_job("long", dsl::reno_dsl(), segs));
  ASSERT_TRUE(first.ok());
  auto second = engine.submit(quick_job("cancelled", dsl::reno_dsl(), segs));
  ASSERT_TRUE(second.ok());
  second->cancel();
  const api::JobResult& r = second->wait();
  EXPECT_EQ(r.status.code(), util::StatusCode::kCancelled);
  EXPECT_TRUE(r.pipeline.synthesis.partial);
  EXPECT_EQ(r.exit_class(), util::exit_code(util::StatusCode::kCancelled));
  first->wait();
}

TEST(Engine, AutoNamesAndDestructorDrains) {
  const auto segs = cca_segments("reno", 21);
  std::string name;
  {
    api::Engine engine({.threads = 2});
    auto h = engine.submit(quick_job("", dsl::reno_dsl(), segs));
    ASSERT_TRUE(h.ok());
    name = h->name();
    EXPECT_EQ(engine.jobs_submitted(), 1u);
  }  // ~Engine waited for the job; no crash, no leak (ASan leg enforces)
  EXPECT_EQ(name, "job-1");
}

// --- Live introspection: jobs_snapshot / jobs_json / convergence series. ----

TEST(EngineStatus, SnapshotMatchesFinalResultsAfterCompletion) {
  const auto segs_reno = cca_segments("reno", 21);
  const auto segs_cubic = cca_segments("cubic", 23);
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto h1 = engine.submit(quick_job("reno", dsl::reno_dsl(), segs_reno));
  auto h2 = engine.submit(quick_job("cubic", dsl::cubic_dsl(), segs_cubic));
  ASSERT_TRUE(h1.ok() && h2.ok());
  const api::JobResult& r1 = h1->wait();
  const api::JobResult& r2 = h2->wait();
  ASSERT_TRUE(r1.ok() && r2.ok());

  const auto snaps = engine.jobs_snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  const api::JobResult* results[] = {&r1, &r2};
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const api::JobSnapshot& s = snaps[i];
    const api::JobResult& r = *results[i];
    EXPECT_EQ(s.name, r.name);
    EXPECT_EQ(s.state, api::JobState::kDone);
    EXPECT_EQ(static_cast<std::size_t>(s.iterations), r.convergence.size());
    EXPECT_EQ(s.planned_iterations, quick_opts().max_iterations);
    EXPECT_EQ(s.elapsed_s, r.seconds);
    EXPECT_EQ(s.found, r.found());
    EXPECT_EQ(s.exit_class, r.exit_class());
    if (r.found()) {
      EXPECT_EQ(s.best_distance, r.pipeline.synthesis.best.distance);
    }
  }
  EXPECT_STREQ(api::job_state_name(api::JobState::kDone), "done");
}

TEST(EngineStatus, JobsJsonIsValidAndMatchesSnapshot) {
  const auto segs = cca_segments("reno", 21);
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto h = engine.submit(quick_job("status-job", dsl::reno_dsl(), segs));
  ASSERT_TRUE(h.ok());
  const api::JobResult& r = h->wait();
  ASSERT_TRUE(r.ok());

  auto doc = util::parse_json(engine.jobs_json());
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  const util::JsonValue* jobs = doc->find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->items().size(), 1u);
  const util::JsonValue& j = jobs->items()[0];
  ASSERT_NE(j.find("name"), nullptr);
  EXPECT_EQ(j.find("name")->as_string(), "status-job");
  EXPECT_EQ(j.find("state")->as_string(), "done");
  EXPECT_EQ(static_cast<std::size_t>(j.find("iterations")->as_int()), r.convergence.size());
  EXPECT_EQ(j.find("found")->as_bool(), r.found());
  EXPECT_EQ(j.find("exit_class")->as_int(), r.exit_class());
  ASSERT_NE(j.find("eta_s"), nullptr);  // present even when done (-1 = n/a)
}

TEST(EngineStatus, ConvergenceSeriesTracksIterationReports) {
  const auto segs = cca_segments("reno", 21);
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto h = engine.submit(quick_job("conv", dsl::reno_dsl(), segs));
  ASSERT_TRUE(h.ok());
  const api::JobResult& r = h->wait();
  ASSERT_TRUE(r.ok());

  const auto& iters = r.pipeline.synthesis.iterations;
  ASSERT_FALSE(r.convergence.empty());
  ASSERT_EQ(r.convergence.size(), iters.size());
  double prev_best = std::numeric_limits<double>::infinity();
  double prev_wall = 0.0;
  for (std::size_t i = 0; i < r.convergence.size(); ++i) {
    const api::ConvergencePoint& p = r.convergence[i];
    EXPECT_EQ(p.iteration, static_cast<int>(i));
    EXPECT_EQ(p.best_distance, iters[i].best_distance);
    // Best-so-far never regresses; cumulative wall time never runs backwards.
    EXPECT_LE(p.best_distance, prev_best);
    EXPECT_GE(p.wall_ms, prev_wall);
    prev_best = p.best_distance;
    prev_wall = p.wall_ms;
  }
}

}  // namespace
}  // namespace abg
