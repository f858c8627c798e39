#include "synth/replay.hpp"

#include "dsl/bytecode.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "synth/batch_eval.hpp"
#include "util/log.hpp"

namespace abg::synth {

void note_nonfinite_cwnd() {
  static auto& c_nonfinite = obs::counter("synth.nonfinite_cwnd");
  c_nonfinite.add();
  ABG_WARN_EVERY_N(100000,
                   "replay: handler produced non-finite cwnd; holding previous window "
                   "(%llu so far)",
                   static_cast<unsigned long long>(c_nonfinite.value()));
}

ReplayStart replay_start(const trace::AckSample& first, const ReplayOptions& opts) {
  const double mss = first.sig.mss > 0 ? first.sig.mss : 1.0;
  const double cwnd = std::isfinite(first.sig.cwnd) ? first.sig.cwnd : mss;
  return {cwnd, mss, opts.min_cwnd_pkts * mss, opts.max_cwnd_pkts * mss};
}

namespace {

// One lane of replay_batch holding an empty assignment, so any residual hole
// reads 1.0.
std::vector<double> replay_program(const dsl::Program& prog, const trace::Segment& segment,
                                   const ReplayOptions& opts) {
  static const std::vector<double> kNoBindings;
  std::vector<std::vector<double>> out;
  replay_batch(prog, {&kNoBindings}, segment, opts, &out);
  return std::move(out.front());
}

double program_distance(const dsl::Program& prog, const trace::Segment& segment,
                        distance::Metric metric, const distance::DistanceOptions& dopts,
                        const ReplayOptions& ropts) {
  return distance::compute(metric, replay_program(prog, segment, ropts),
                           observed_series_pkts(segment), dopts);
}

}  // namespace

std::vector<double> replay(const dsl::Expr& handler, const trace::Segment& segment,
                           const ReplayOptions& opts) {
  return replay_program(dsl::compile(handler), segment, opts);
}

std::vector<double> observed_series_pkts(std::span<const trace::AckSample> samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) {
    const double mss = s.sig.mss > 0 ? s.sig.mss : 1.0;
    out.push_back(s.cwnd_after / mss);
  }
  return out;
}

std::vector<double> observed_series_pkts(const trace::Segment& segment) {
  return observed_series_pkts(std::span<const trace::AckSample>(segment.samples));
}

double segment_distance(const dsl::Expr& handler, const trace::Segment& segment,
                        distance::Metric metric, const distance::DistanceOptions& dopts,
                        const ReplayOptions& ropts) {
  return program_distance(dsl::compile(handler), segment, metric, dopts, ropts);
}

double total_distance(const dsl::Expr& handler, const std::vector<trace::Segment>& segments,
                      distance::Metric metric, const distance::DistanceOptions& dopts,
                      const ReplayOptions& ropts) {
  const dsl::Program prog = dsl::compile(handler);
  double sum = 0.0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    // Stamp the segment index so the journal's DTW detail events attribute
    // cells to working-set positions (abg_inspect hotspots --by segment).
    if (obs::journal_enabled()) obs::journal_set_segment(static_cast<std::uint32_t>(i));
    sum += program_distance(prog, segments[i], metric, dopts, ropts);
  }
  return sum;
}

}  // namespace abg::synth
