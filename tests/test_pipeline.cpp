// Classifier and full-pipeline integration tests (small environments to
// keep the suite quick; the paper-scale runs are in bench/).
#include <gtest/gtest.h>

#include <cmath>

#include "api/engine.hpp"
#include "classify/classifier.hpp"
#include "core/abagnale.hpp"
#include "net/simulator.hpp"

namespace abg {
namespace {

std::vector<trace::Environment> tiny_envs(std::uint64_t seed) {
  auto envs = net::default_environments(2, seed);
  for (auto& e : envs) e.duration_s = 8.0;
  return envs;
}

classify::ClassifierOptions tiny_classifier_opts() {
  classify::ClassifierOptions o;
  o.known_ccas = {"reno", "cubic", "vegas", "bbr", "scalable"};
  o.environments = tiny_envs(501);
  return o;
}

TEST(Classifier, IdentifiesItsOwnReferences) {
  classify::Classifier c(tiny_classifier_opts());
  for (const auto& name : {"reno", "vegas", "bbr"}) {
    // Same environments, different seeds than the references.
    auto envs = tiny_envs(733);
    auto traces = net::collect_traces(name, envs);
    auto result = c.classify(traces);
    EXPECT_EQ(result.label, name);
    ASSERT_FALSE(result.closest.empty());
    EXPECT_EQ(result.closest.front(), name);
  }
}

TEST(Classifier, StudentCcaIsUnknownWithClosestHints) {
  classify::ClassifierOptions opts = tiny_classifier_opts();
  opts.unknown_threshold = 8.0;  // strict, as for genuinely novel CCAs
  classify::Classifier c(opts);
  auto traces = net::collect_traces("student6", tiny_envs(733));
  auto result = c.classify(traces);
  EXPECT_TRUE(result.is_unknown());
  EXPECT_EQ(result.closest.size(), opts.known_ccas.size());
}

TEST(Classifier, PerConnectionVotesAreRecorded) {
  classify::Classifier c(tiny_classifier_opts());
  auto traces = net::collect_traces("reno", tiny_envs(733));
  auto result = c.classify(traces);
  ASSERT_EQ(result.per_connection.size(), traces.size());
  for (const auto& m : result.per_connection) {
    EXPECT_FALSE(m.cca.empty());
    EXPECT_GE(m.distance, 0.0);
  }
}

TEST(DslSelection, KnownLabelUsesFamilyDsl) {
  classify::Classification c;
  c.label = "reno";
  EXPECT_EQ(core::dsl_for_classification(c), "reno");
  c.label = "vegas";
  EXPECT_EQ(core::dsl_for_classification(c), "vegas");
  c.label = "cubic";
  EXPECT_EQ(core::dsl_for_classification(c), "cubic");
  c.label = "bbr";
  EXPECT_EQ(core::dsl_for_classification(c), "bbr");
}

TEST(DslSelection, UnknownFallsBackToClosestHint) {
  classify::Classification c;
  c.label = "unknown";
  c.closest = {"veno", "reno"};
  EXPECT_EQ(core::dsl_for_classification(c), "vegas");  // veno's family
}

TEST(DslSelection, NoHintsDefaultToVegas) {
  classify::Classification c;
  c.label = "unknown";
  EXPECT_EQ(core::dsl_for_classification(c), "vegas");
}

core::PipelineOptions tiny_pipeline_opts() {
  core::PipelineOptions o;
  o.classifier = tiny_classifier_opts();
  o.synth.initial_samples = 6;
  o.synth.initial_keep = 3;
  o.synth.concretize_budget = 12;
  o.synth.max_iterations = 2;
  o.synth.exhaustive_cap = 40;
  o.synth.max_depth = 3;
  o.synth.max_nodes = 5;
  o.synth.max_holes = 2;
  o.synth.threads = 2;
  return o;
}

api::JobSpec pipeline_spec(const core::PipelineOptions& opts,
                           const std::vector<trace::Trace>& traces) {
  api::JobSpec spec;
  spec.pipeline = opts;
  for (const auto& t : traces) spec.add_trace(t);
  return spec;
}

api::JobResult run_pipeline(const core::PipelineOptions& opts,
                            const std::vector<trace::Trace>& traces) {
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto handle = engine.submit(pipeline_spec(opts, traces));
  EXPECT_TRUE(handle.ok()) << handle.status().to_string();
  return handle->wait();
}

TEST(Pipeline, EndToEndOnReno) {
  auto traces = net::collect_traces("reno", tiny_envs(733));
  const auto result = run_pipeline(tiny_pipeline_opts(), traces).pipeline;
  EXPECT_EQ(result.classification.label, "reno");
  EXPECT_EQ(result.dsl_name, "reno");
  EXPECT_GT(result.segments_total, 0u);
  ASSERT_TRUE(result.found());
  EXPECT_FALSE(result.handler_string().empty());
  EXPECT_TRUE(std::isfinite(result.distance()));
}

TEST(Pipeline, DslOverrideSkipsClassifier) {
  auto opts = tiny_pipeline_opts();
  opts.dsl_override = "reno";
  auto traces = net::collect_traces("scalable", tiny_envs(733));
  const auto result = run_pipeline(opts, traces).pipeline;
  EXPECT_EQ(result.dsl_name, "reno");
  EXPECT_TRUE(result.classification.label.empty());  // classifier skipped
  EXPECT_TRUE(result.found());
}

TEST(Pipeline, WarmupTrimShrinksSegmentPool) {
  auto traces = net::collect_traces("reno", tiny_envs(733));
  auto opts = tiny_pipeline_opts();
  opts.dsl_override = "reno";
  opts.warmup_s = 0.0;
  const auto untrimmed = api::prepare(pipeline_spec(opts, traces));
  opts.warmup_s = 4.0;
  const auto trimmed = api::prepare(pipeline_spec(opts, traces));
  ASSERT_TRUE(untrimmed.ok() && trimmed.ok());
  EXPECT_LT(trimmed->segments.size(), untrimmed->segments.size());
}

}  // namespace
}  // namespace abg
