#include "synth/mister880.hpp"

#include <algorithm>
#include <cmath>

#include "dsl/bytecode.hpp"
#include "obs/registry.hpp"
#include "synth/batch_eval.hpp"
#include "synth/concretize.hpp"
#include "synth/replay.hpp"

namespace abg::synth {

util::Status Mister880Options::validate() const {
  auto bad = [](const std::string& msg) {
    return util::Status(util::StatusCode::kInvalidArgument, msg);
  };
  if (std::isnan(match_tolerance) || match_tolerance <= 0.0) {
    return bad("match_tolerance must be a positive fraction");
  }
  if (max_depth && *max_depth < 1) return bad("max_depth must be >= 1 when set");
  if (max_nodes && *max_nodes < 1) return bad("max_nodes must be >= 1 when set");
  if (max_holes < 0) return bad("max_holes must be >= 0");
  if (max_sketches < 1) return bad("max_sketches must be >= 1");
  if (concretize_budget < 1) return bad("concretize_budget must be >= 1");
  return util::Status::ok();
}

namespace {

bool series_match(const std::vector<double>& synth, const std::vector<double>& observed,
                  double tolerance) {
  if (synth.size() != observed.size()) return false;
  for (std::size_t i = 0; i < synth.size(); ++i) {
    const double scale = std::max(std::fabs(observed[i]), 1.0);
    if (std::fabs(synth[i] - observed[i]) > tolerance * scale) return false;
  }
  return true;
}

}  // namespace

bool exact_match(const dsl::Expr& handler, const trace::Segment& segment, double tolerance) {
  return series_match(replay(handler, segment), observed_series_pkts(segment), tolerance);
}

Mister880Result mister880_synthesize(const dsl::Dsl& dsl,
                                     const std::vector<trace::Segment>& segments,
                                     const Mister880Options& opts) {
  Mister880Result result;
  EnumeratorOptions eopts;
  eopts.unit_check = opts.unit_check;
  eopts.max_depth = opts.max_depth;
  eopts.max_nodes = opts.max_nodes;
  eopts.max_holes = opts.max_holes;
  SketchEnumerator enumerator(dsl, eopts);

  util::Rng rng(opts.seed);
  ConcretizeOptions copts;
  copts.budget = opts.concretize_budget;
  std::vector<std::vector<double>> observed;
  for (const auto& seg : segments) observed.push_back(observed_series_pkts(seg));

  // Counters advance at the same statements as the hand-counted result
  // fields; test_obs asserts the two stay equal so they cannot drift.
  static auto& c_sketches = obs::counter("mister880.sketches_tried");
  static auto& c_handlers = obs::counter("mister880.handlers_tried");
  std::vector<const std::vector<double>*> lanes;
  std::vector<std::vector<double>> series;
  while (result.sketches_tried < opts.max_sketches) {
    auto sketch = enumerator.next();
    if (!sketch) {  // space exhausted: decision search failed
      result.status = enumerator.status();
      break;
    }
    ++result.sketches_tried;
    c_sketches.add();
    // One compiled program per sketch; each replay_batch call tests up to
    // dsl::kBatchLanes assignments, and a window stops replaying segments
    // once none of its lanes still matches.
    const auto assigns = enumerate_assignments(**sketch, dsl.constant_pool, copts, rng);
    const dsl::Program prog = dsl::compile(**sketch);
    for (std::size_t lo = 0; lo < assigns.size(); lo += dsl::kBatchLanes) {
      lanes.clear();
      for (std::size_t k = lo; k < std::min(assigns.size(), lo + dsl::kBatchLanes); ++k) {
        lanes.push_back(&assigns[k]);
      }
      std::vector<bool> match(lanes.size(), true);
      for (std::size_t s = 0; s < segments.size(); ++s) {
        if (std::count(match.begin(), match.end(), true) == 0) break;
        replay_batch(prog, lanes, segments[s], {}, &series);
        for (std::size_t k = 0; k < lanes.size(); ++k) {
          match[k] = match[k] && series_match(series[k], observed[s], opts.match_tolerance);
        }
      }
      // Assignment order decides: the first exact solution wins (decision
      // semantics), and the handlers after it count as untried.
      for (std::size_t k = 0; k < lanes.size(); ++k) {
        ++result.handlers_tried;
        c_handlers.add();
        if (match[k]) {
          result.handler = dsl::fill_holes(*sketch, assigns[lo + k]);
          return result;
        }
      }
    }
  }
  return result;
}

}  // namespace abg::synth
