#include "synth/batch_eval.hpp"

#include <algorithm>

#include "util/fault_injection.hpp"

namespace abg::synth {

void replay_batch(const dsl::Program& prog,
                  const std::vector<const std::vector<double>*>& assigns,
                  const trace::Segment& segment, const ReplayOptions& opts,
                  std::vector<std::vector<double>>* out) {
  const std::size_t n_lanes = assigns.size();
  out->assign(n_lanes, {});
  if (n_lanes == 0) return;
  // Materialize the slot-major binding matrix with fill_holes's clamp (empty
  // vector -> 1.0, short vector -> last element repeats) applied up front.
  std::vector<double> holes(prog.hole_slots * n_lanes);
  for (std::size_t slot = 0; slot < prog.hole_slots; ++slot) {
    for (std::size_t l = 0; l < n_lanes; ++l) {
      const auto& a = *assigns[l];
      holes[slot * n_lanes + l] = a.empty() ? 1.0 : a[std::min(slot, a.size() - 1)];
    }
  }

  if (segment.samples.empty()) return;
  for (std::size_t l = 0; l < n_lanes; ++l) {
    (*out)[l].reserve(segment.samples.size());
  }

  // Per-lane state: the shared starting window, the duplicate-ACK skip, and
  // next_cwnd's hold/count/clamp after every evaluation.
  double cwnd[dsl::kBatchLanes];
  double next[dsl::kBatchLanes];
  const ReplayStart start = replay_start(segment.samples.front(), opts);
  for (std::size_t l = 0; l < n_lanes; ++l) cwnd[l] = start.cwnd;

  for (const auto& sample : segment.samples) {
    if (!sample.is_dup && sample.sig.acked_bytes > 0) {
      dsl::run_batch(prog, sample.sig, {cwnd, n_lanes}, holes, n_lanes, next);
      for (std::size_t l = 0; l < n_lanes; ++l) {
        util::fault::corrupt(&next[l], "replay.handler_output");
        cwnd[l] = next_cwnd(cwnd[l], next[l], start.lo, start.hi);
      }
    }
    for (std::size_t l = 0; l < n_lanes; ++l) (*out)[l].push_back(cwnd[l] / start.mss);
  }
}

}  // namespace abg::synth
