// Configuration and result types of the Abagnale pipeline (Figure 1):
// packet traces -> CCA classifier -> sub-DSL selection -> trace segmentation
// + diversity sampling -> bucketized, enumerated, distance-guided
// refinement loop -> the simplest handler expression whose synthesized trace
// best matches the observations. api::Engine runs the pipeline (front half:
// api::prepare; search: synth::synthesize).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "classify/classifier.hpp"
#include "synth/refinement.hpp"
#include "trace/trace.hpp"
#include "util/status.hpp"

namespace abg::core {

struct PipelineOptions {
  synth::SynthesisOptions synth;
  classify::ClassifierOptions classifier;
  // Segments shorter than this many ACK samples are dropped (§3.2).
  std::size_t min_segment_samples = 20;
  // Drop each trace's first `warmup_s` seconds (connection ramp-up): the
  // cwnd-ack handler model targets steady-state behaviour.
  double warmup_s = 2.0;
  // Additionally drop each trace's pre-first-loss segment.
  bool skip_first_segment = false;
  // Skip classification and force a curated DSL by name.
  std::optional<std::string> dsl_override;

  // Eager validation of the whole option tree (synth options included).
  // Returns kInvalidArgument naming the first bad field; called by every
  // abg::api entry point before any work starts.
  util::Status validate() const;
};

struct PipelineResult {
  classify::Classification classification;  // empty label if overridden
  std::string dsl_name;                     // sub-DSL the search ran in
  std::size_t segments_total = 0;           // segment pool size
  synth::SynthesisResult synthesis;

  // Convenience accessors.
  bool found() const { return synthesis.best.valid(); }
  std::string handler_string() const;
  double distance() const { return synthesis.best.distance; }
};

// Map a classifier outcome to the curated sub-DSL to search (§3.3): a
// definitive label uses that CCA family's DSL; an Unknown result falls back
// to the closest known CCA's family; no hint at all defaults to the Vegas
// DSL (the broadest curated space).
std::string dsl_for_classification(const classify::Classification& c);

}  // namespace abg::core
