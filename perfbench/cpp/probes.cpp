// Per-layer probes of the traced pass. Each probe calls one module's public
// functions from outside, on the traced batch's own inputs, with a span
// around every call:
//   trace     trim_warmup + segment_all per job
//   classify  Classifier construction once, classify() per job
//   enumerate SketchEnumerator construction, next() x initial_samples and
//             destruction, for every bucket of each DSL the workload searches
//   evaluate  the first-iteration scoring of a fixed sample of those
//             sketches: concretize, bytecode replay, DTW, without early
//             abandon or cache
#include <algorithm>
#include <set>

#include "bench.hpp"
#include "classify/classifier.hpp"
#include "distance/distance.hpp"
#include "dsl/bytecode.hpp"
#include "dsl/known_handlers.hpp"
#include "obs/registry.hpp"
#include "synth/batch_eval.hpp"
#include "synth/buckets.hpp"
#include "synth/concretize.hpp"
#include "synth/enumerator.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

// Sketches the evaluation probe scores per DSL, spread over the buckets.
constexpr std::size_t kEvalSketches = 8;

struct EnumeratedBucket {
  std::vector<abg::dsl::ExprPtr> sketches;
  std::size_t models = 0;
};

std::vector<EnumeratedBucket> probe_enumerator(const abg::dsl::Dsl& dsl,
                                               const abg::synth::SynthesisOptions& opts,
                                               abg::util::ThreadPool& pool, SpanLog& log) {
  const auto buckets = abg::synth::make_buckets(dsl);
  std::vector<EnumeratedBucket> out(buckets.size());
  pool.parallel_for(buckets.size(), [&](std::size_t b) {
    abg::synth::EnumeratorOptions eopts;
    eopts.unit_check = opts.unit_check;
    eopts.bucket = buckets[b].ops;
    eopts.max_holes = opts.max_holes;
    eopts.max_depth = opts.max_depth;
    eopts.max_nodes = opts.max_nodes;
    std::unique_ptr<abg::synth::SketchEnumerator> e;
    {
      SpanScope sp(&log, "enumerate.construct");
      e = std::make_unique<abg::synth::SketchEnumerator>(dsl, eopts);
    }
    while (out[b].sketches.size() < static_cast<std::size_t>(opts.initial_samples)) {
      SpanScope sp(&log, "enumerate.next");
      auto s = e->next();
      if (!s) break;
      out[b].sketches.push_back(std::move(*s));
    }
    out[b].models = e->models_enumerated();
    SpanScope sp(&log, "enumerate.destroy");
    e.reset();
  });
  return out;
}

// Scores `sketches` on `working` the way one bucket pass does, minus the
// cache and early abandon; returns the number of handlers scored.
std::size_t probe_evaluation(const abg::dsl::Dsl& dsl, const abg::synth::SynthesisOptions& opts,
                             const std::vector<abg::dsl::ExprPtr>& sketches,
                             const std::vector<abg::trace::Segment>& working,
                             abg::util::ThreadPool& pool, SpanLog& log) {
  std::vector<std::vector<double>> observed;
  for (const auto& seg : working) observed.push_back(abg::synth::observed_series_pkts(seg));
  std::vector<std::size_t> handlers(sketches.size(), 0);
  pool.parallel_for(sketches.size(), [&](std::size_t i) {
    abg::util::Rng rng(opts.seed + i);
    std::vector<std::vector<double>> assigns;
    {
      SpanScope sp(&log, "concretize");
      abg::synth::ConcretizeOptions copts;
      copts.budget = opts.concretize_budget;
      assigns = abg::synth::enumerate_assignments(*sketches[i], dsl.constant_pool, copts, rng);
    }
    handlers[i] = assigns.size();
    for (std::size_t lo = 0; lo < assigns.size(); lo += abg::dsl::kBatchLanes) {
      const std::size_t hi = std::min(assigns.size(), lo + abg::dsl::kBatchLanes);
      std::vector<const std::vector<double>*> lanes;
      for (std::size_t k = lo; k < hi; ++k) lanes.push_back(&assigns[k]);
      std::vector<std::vector<std::vector<double>>> series(working.size());
      {
        SpanScope sp(&log, "replay");
        const auto prog = abg::dsl::compile(*sketches[i]);
        for (std::size_t s = 0; s < working.size(); ++s) {
          abg::synth::replay_batch(prog, lanes, working[s], {}, &series[s]);
        }
      }
      SpanScope sp(&log, "distance");
      for (std::size_t s = 0; s < working.size(); ++s) {
        for (const auto& lane : series[s]) {
          abg::distance::compute(opts.metric, lane, observed[s], opts.dopts);
        }
      }
    }
  });
  std::size_t total = 0;
  for (std::size_t h : handlers) total += h;
  return total;
}

double percentile_ms(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[idx] * 1e3;
}

std::uint64_t dtw_cells() { return abg::obs::counter("distance.dtw_cells").value(); }

}  // namespace

std::string metric_unit(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_per_s")) return "1/s";
  if (ends("_ms_p50") || ends("_ms_max")) return "ms";
  if (ends("_s") || ends(".s")) return "s";
  if (ends("share") || ends("yield") || ends("util")) return "ratio";
  if (name == "winner_distance") return "dtw";
  return "count";
}

Metrics probe_layers(const Workload& w, const std::vector<PreparedJob>& inputs, SpanLog& log) {
  Metrics m;
  abg::util::ThreadPool pool(w.pool_threads + w.drivers);

  // trace: the CSV loads happened in the traced set-up; segmentation here.
  m["trace.load_s"] = log.total_s("trace.load_csv");
  std::vector<std::vector<abg::trace::Segment>> pools;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    SpanScope sp(&log, "trace.segment");
    pools.push_back(job_segments(w.jobs[i], inputs[i].traces));
  }
  m["trace.segment_s"] = log.total_s("trace.segment");
  double segments = 0.0;
  for (const auto& p : pools) segments += static_cast<double>(p.size());
  m["trace.segments"] = segments;

  // classify: what the pipeline would pick for each job's traces.
  std::vector<std::string> dsls;
  {
    std::unique_ptr<abg::classify::Classifier> c;
    {
      SpanScope sp(&log, "classify.Classifier");
      c = std::make_unique<abg::classify::Classifier>(w.jobs.front().pipeline.classifier);
    }
    double matched = 0.0;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
      abg::classify::Classification label;
      {
        SpanScope sp(&log, "classify.classify");
        label = c->classify(inputs[i].traces);
      }
      const std::string picked = abg::core::dsl_for_classification(label);
      const auto& forced = w.jobs[i].pipeline.dsl_override;
      dsls.push_back(forced ? *forced : picked);
      matched += picked == abg::dsl::known_handlers(w.jobs[i].cca).dsl_hint ? 1.0 : 0.0;
    }
    m["classify.build_s"] = log.total_s("classify.Classifier");
    m["classify.classify_s"] = log.total_s("classify.classify");
    m["classify.dsl_match_share"] = matched / static_cast<double>(w.jobs.size());
  }

  // enumerate + evaluate, once per distinct DSL the jobs search.
  double models = 0.0, sketches = 0.0, handlers = 0.0;
  const std::uint64_t cells0 = dtw_cells();
  std::set<std::string> done;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    if (!done.insert(dsls[i]).second) continue;
    const auto dsl = abg::dsl::dsl_by_name(dsls[i]);
    const auto& opts = w.jobs[i].pipeline.synth;
    const auto buckets = probe_enumerator(dsl, opts, pool, log);
    // Round-robin over buckets so the sample covers many operator sets.
    std::vector<abg::dsl::ExprPtr> sample;
    for (std::size_t depth = 0; sample.size() < kEvalSketches; ++depth) {
      bool any = false;
      for (const auto& b : buckets) {
        if (depth < b.sketches.size() && sample.size() < kEvalSketches) {
          sample.push_back(b.sketches[depth]);
          any = true;
        }
      }
      if (!any) break;
    }
    for (const auto& b : buckets) {
      models += static_cast<double>(b.models);
      sketches += static_cast<double>(b.sketches.size());
    }
    const auto working =
        select_segments(pools[i], opts, static_cast<std::size_t>(opts.initial_segments));
    handlers += static_cast<double>(probe_evaluation(dsl, opts, sample, working, pool, log));
  }
  const double cells = static_cast<double>(dtw_cells() - cells0);

  m["enumerate.construct_s"] = log.total_s("enumerate.construct");
  m["enumerate.next_s"] = log.total_s("enumerate.next");
  m["enumerate.destroy_s"] = log.total_s("enumerate.destroy");
  m["enumerate.models"] = models;
  m["enumerate.sketches"] = sketches;
  m["enumerate.yield"] = models > 0 ? sketches / models : 0.0;
  m["enumerate.next_ms_p50"] = percentile_ms(log.durations("enumerate.next"), 0.5);
  m["enumerate.next_ms_max"] = percentile_ms(log.durations("enumerate.next"), 1.0);
  m["concretize.handlers"] = handlers;
  m["concretize.s"] = log.total_s("concretize");
  m["replay.s"] = log.total_s("replay");
  m["replay.handlers_per_s"] = handlers / m["replay.s"];
  m["distance.s"] = log.total_s("distance");
  m["distance.probe_cells"] = cells;
  m["distance.cells_per_s"] = cells / m["distance.s"];
  return m;
}

}  // namespace perfbench
