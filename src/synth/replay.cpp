#include "synth/replay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dsl/eval.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "util/fault_injection.hpp"
#include "util/log.hpp"

namespace abg::synth {

obs::Counter& nonfinite_cwnd_counter() {
  static auto& c = obs::counter("synth.nonfinite_cwnd");
  return c;
}

std::vector<double> replay(const dsl::Expr& handler, const trace::Segment& segment,
                           const ReplayOptions& opts) {
  std::vector<double> out;
  out.reserve(segment.samples.size());
  if (segment.samples.empty()) return out;

  double cwnd = segment.samples.front().sig.cwnd;  // start from the observed window
  const double mss = segment.samples.front().sig.mss > 0 ? segment.samples.front().sig.mss : 1.0;
  // A corrupted (non-finite) starting window would poison every step of the
  // rollout through the clamp below; fall back to one packet.
  if (!std::isfinite(cwnd)) cwnd = mss;
  for (const auto& sample : segment.samples) {
    if (!sample.is_dup && sample.sig.acked_bytes > 0) {
      cca::Signals sig = sample.sig;  // observed inputs...
      sig.cwnd = cwnd;                // ...but the candidate's own state
      double next = dsl::eval(handler, sig);
      util::fault::corrupt(&next, "replay.handler_output");
      if (std::isfinite(next)) {
        cwnd = std::clamp(next, opts.min_cwnd_pkts * mss, opts.max_cwnd_pkts * mss);
      } else {
        // Hold the previous window — a candidate that divides by zero or
        // overflows must degrade, not propagate NaN into the distance layer.
        auto& c_nonfinite = nonfinite_cwnd_counter();
        c_nonfinite.add();
        ABG_WARN_EVERY_N(100000,
                         "replay: candidate handler produced non-finite cwnd; holding "
                         "previous window (%llu so far)",
                         static_cast<unsigned long long>(c_nonfinite.value()));
      }
    }
    out.push_back(cwnd / mss);
  }
  return out;
}

std::vector<double> observed_series_pkts(const trace::Segment& segment) {
  std::vector<double> out;
  out.reserve(segment.samples.size());
  for (const auto& s : segment.samples) {
    const double mss = s.sig.mss > 0 ? s.sig.mss : 1.0;
    out.push_back(s.cwnd_after / mss);
  }
  return out;
}

double segment_distance(const dsl::Expr& handler, const trace::Segment& segment,
                        distance::Metric metric, const distance::DistanceOptions& dopts,
                        const ReplayOptions& ropts) {
  const auto synth = replay(handler, segment, ropts);
  const auto observed = observed_series_pkts(segment);
  return distance::compute(metric, synth, observed, dopts);
}

double total_distance(const dsl::Expr& handler, const std::vector<trace::Segment>& segments,
                      distance::Metric metric, const distance::DistanceOptions& dopts,
                      const ReplayOptions& ropts) {
  double sum = 0.0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    // Stamp the segment index so the journal's DTW detail events attribute
    // cells to working-set positions (abg_inspect hotspots --by segment).
    if (obs::journal_enabled()) obs::journal_set_segment(static_cast<std::uint32_t>(i));
    sum += segment_distance(handler, segments[i], metric, dopts, ropts);
  }
  return sum;
}

}  // namespace abg::synth
