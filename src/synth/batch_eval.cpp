#include "synth/batch_eval.hpp"

#include <algorithm>
#include <cmath>

#include "obs/registry.hpp"
#include "util/fault_injection.hpp"
#include "util/log.hpp"

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

  // Per-lane state and per-sample update, mirroring replay() line for line:
  // same starting window, same skip rule for duplicate ACKs, same clamp, and
  // the same hold-on-non-finite degradation (with the same counter).
  double cwnd[dsl::kBatchLanes];
  double next[dsl::kBatchLanes];
  double cwnd0 = segment.samples.front().sig.cwnd;
  const double front_mss = segment.samples.front().sig.mss;
  const double mss = front_mss > 0 ? front_mss : 1.0;
  if (!std::isfinite(cwnd0)) cwnd0 = mss;
  for (std::size_t l = 0; l < n_lanes; ++l) cwnd[l] = cwnd0;

  const double lo = opts.min_cwnd_pkts * mss;
  const double hi = opts.max_cwnd_pkts * mss;
  for (const auto& sample : segment.samples) {
    if (!sample.is_dup && sample.sig.acked_bytes > 0) {
      dsl::run_batch(prog, sample.sig, {cwnd, n_lanes}, holes, n_lanes, next);
      for (std::size_t l = 0; l < n_lanes; ++l) {
        util::fault::corrupt(&next[l], "replay.handler_output");
        if (std::isfinite(next[l])) {
          cwnd[l] = std::clamp(next[l], lo, hi);
        } else {
          auto& c_nonfinite = nonfinite_cwnd_counter();
          c_nonfinite.add();
          ABG_WARN_EVERY_N(100000,
                           "replay: candidate handler produced non-finite cwnd; holding "
                           "previous window (%llu so far)",
                           static_cast<unsigned long long>(c_nonfinite.value()));
        }
      }
    }
    for (std::size_t l = 0; l < n_lanes; ++l) (*out)[l].push_back(cwnd[l] / mss);
  }
}

}  // namespace abg::synth
