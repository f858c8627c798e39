// Checkpoint/resume for the refinement loop (ISSUE 3). After every completed
// iteration, synthesize() can serialize its full search state — iteration
// counter, N/k, per-bucket enumeration counts and RNG streams, bucket-best
// handlers, the segment sampler, every candidate seen, and the iteration
// reports — to a file via an atomic tmp+rename write. A killed batch run
// restarted with resume=true replays from the last completed iteration and
// produces bit-identical final results (golden-tested).
//
// Sketches are NOT serialized: the SMT enumerator is deterministic, so the
// checkpoint records only how many sketches each bucket had enumerated and
// resume re-derives them. Handlers round-trip as text via dsl::to_string /
// dsl::parse; doubles are serialized as C99 hex floats so distances restore
// bit-exactly.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "synth/refinement.hpp"
#include "trace/trace.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace abg::synth {

struct BucketCheckpoint {
  std::string label;
  std::size_t sketches = 0;  // re-enumerated on resume
  std::size_t handlers_scored = 0;
  bool exhausted = false;
  util::Rng::State rng;
  double best_distance = std::numeric_limits<double>::infinity();
  std::string best_sketch;   // empty = no valid best yet
  std::string best_handler;
};

struct ScoredHandlerCheckpoint {
  double distance = std::numeric_limits<double>::infinity();
  std::string sketch;
  std::string handler;
};

struct Checkpoint {
  // Guards against resuming over different inputs: both must match the
  // resuming run exactly.
  std::uint64_t pool_fingerprint = 0;  // segment_pool_fingerprint(all segments)
  std::uint64_t seed = 0;              // SynthesisOptions::seed

  int next_iter = 0;  // first iteration the resumed loop should run
  int n = 0;          // N at next_iter
  int k = 0;          // k at next_iter

  ScoredHandlerCheckpoint best;  // running best across buckets
  util::Rng::State sampler_rng;
  std::vector<std::size_t> sampler_selected;
  std::vector<std::size_t> live;  // indices into the bucket-state vector
  std::vector<BucketCheckpoint> buckets;
  std::vector<ScoredHandlerCheckpoint> candidates;
  std::vector<IterationReport> iterations;
};

// Content fingerprint of a segment pool. Hashes every sample of every
// segment, so two pools collide only by 64-bit accident, not by construction.
std::uint64_t segment_pool_fingerprint(const std::vector<trace::Segment>& segments);

// Durable atomic write: serialize to `path + ".tmp"`, fsync, rename over
// `path`, fsync the parent directory (util::atomic_write_file). A crash
// mid-save leaves the previous checkpoint intact; after power loss the file
// is either the old checkpoint or the complete new one, never torn.
util::Status save_checkpoint(const Checkpoint& ck, const std::string& path);

// kIoError if the file cannot be read (callers treat a missing file as
// "start fresh"); kParseError on any malformed content.
util::Result<Checkpoint> load_checkpoint(const std::string& path);

}  // namespace abg::synth
