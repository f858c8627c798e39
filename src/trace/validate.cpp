#include "trace/validate.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "obs/registry.hpp"
#include "util/log.hpp"

namespace abg::trace {

namespace {

using util::Status;
using util::StatusCode;

Status invalid(std::size_t row, const char* what) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "sample %zu: %s", row, what);
  return Status(StatusCode::kInvalidTrace, buf);
}

bool all_finite(const AckSample& s) {
  // Enumerated explicitly so a future non-double member cannot be silently
  // swept by pointer arithmetic over the struct.
  const cca::Signals& g = s.sig;
  const double fields[] = {g.now,      g.mss,          g.cwnd,       g.inflight, g.acked_bytes,
                           g.rtt,      g.srtt,         g.min_rtt,    g.max_rtt,  g.ack_rate,
                           g.rtt_gradient, g.time_since_loss, g.cwnd_at_loss, s.cwnd_after,
                           s.ack_seq};
  for (double f : fields) {
    if (!std::isfinite(f)) return false;
  }
  return true;
}

// Fields that must be non-negative; corruption here makes the whole sample
// untrustworthy (window state, clocks, RTT estimates).
bool core_fields_nonnegative(const AckSample& s) {
  const cca::Signals& g = s.sig;
  return g.now >= 0 && g.mss >= 0 && g.cwnd >= 0 && g.inflight >= 0 && g.rtt >= 0 &&
         g.srtt >= 0 && g.min_rtt >= 0 && g.max_rtt >= 0 && g.cwnd_at_loss >= 0 &&
         s.cwnd_after >= 0;
}

// Byte/rate counters that plausibly jitter below zero under measurement
// noise: repair mode clamps these to 0 instead of dropping the sample.
// (rtt_gradient is legitimately signed and is not checked.)
bool clampable_fields_nonnegative(const AckSample& s) {
  return s.sig.acked_bytes >= 0 && s.sig.ack_rate >= 0 && s.sig.time_since_loss >= 0 &&
         s.ack_seq >= 0;
}

void clamp_fields(AckSample& s) {
  if (s.sig.acked_bytes < 0) s.sig.acked_bytes = 0;
  if (s.sig.ack_rate < 0) s.sig.ack_rate = 0;
  if (s.sig.time_since_loss < 0) s.sig.time_since_loss = 0;
  if (s.ack_seq < 0) s.ack_seq = 0;
}

Status validate_environment(const Environment& env) {
  const double fields[] = {env.bandwidth_bps, env.rtt_s,      env.buffer_bytes,
                           env.random_loss,   env.duration_s, env.cross_traffic_bps};
  for (double f : fields) {
    if (!std::isfinite(f)) {
      return Status(StatusCode::kNumericError, "environment metadata is non-finite");
    }
  }
  if (env.bandwidth_bps <= 0) {
    return Status(StatusCode::kInvalidTrace, "environment bandwidth must be positive");
  }
  if (env.rtt_s <= 0) {
    return Status(StatusCode::kInvalidTrace, "environment RTT must be positive");
  }
  if (env.buffer_bytes < 0 || env.duration_s < 0 || env.cross_traffic_bps < 0) {
    return Status(StatusCode::kInvalidTrace, "environment sizes must be non-negative");
  }
  if (env.random_loss < 0 || env.random_loss > 1) {
    return Status(StatusCode::kInvalidTrace, "environment loss probability outside [0,1]");
  }
  return Status::ok();
}

}  // namespace

obs::Counter& rows_dropped_counter() {
  static auto& c = obs::counter("trace.rows_dropped");
  return c;
}

util::Status validate_trace(Trace& t, const ValidateOptions& opts, ValidateStats* stats) {
  auto& c_dropped = rows_dropped_counter();
  static auto& c_repaired = obs::counter("trace.rows_repaired");

  if (auto st = validate_environment(t.env); !st.is_ok()) return st;
  if (t.samples.empty()) {
    return Status(StatusCode::kInvalidTrace, "trace has no samples");
  }

  std::vector<AckSample> kept;
  if (opts.repair) kept.reserve(t.samples.size());
  double prev_now = -std::numeric_limits<double>::infinity();
  std::size_t dropped = 0, repaired = 0;

  for (std::size_t i = 0; i < t.samples.size(); ++i) {
    AckSample s = t.samples[i];
    const char* reason = nullptr;
    StatusCode code = StatusCode::kInvalidTrace;
    if (!all_finite(s)) {
      reason = "non-finite field";
      code = StatusCode::kNumericError;
    } else if (!core_fields_nonnegative(s)) {
      reason = "negative window/clock/RTT field";
    } else if (s.sig.now < prev_now) {
      reason = "non-monotonic timestamp";
    }
    if (reason != nullptr) {
      if (!opts.repair) return Status(code, invalid(i, reason).message());
      // Rate-limited: a thoroughly corrupted multi-MB trace would otherwise
      // emit one warning per ACK row.
      ABG_WARN_EVERY_N(1000, "repair: dropping sample %zu (%s)", i, reason);
      ++dropped;
      continue;
    }
    if (!clampable_fields_nonnegative(s)) {
      if (!opts.repair) return invalid(i, "negative byte/rate counter");
      ABG_WARN_EVERY_N(1000, "repair: clamping negative byte/rate counter at sample %zu", i);
      clamp_fields(s);
      ++repaired;
    }
    prev_now = s.sig.now;
    if (opts.repair) kept.push_back(std::move(s));
  }

  if (opts.repair) {
    t.samples = std::move(kept);
    c_dropped.add(dropped);
    c_repaired.add(repaired);
    if (stats != nullptr) {
      stats->rows_dropped += dropped;
      stats->rows_repaired += repaired;
    }
    if (t.samples.empty()) {
      return Status(StatusCode::kInvalidTrace, "no valid samples after repair");
    }
  }
  return Status::ok();
}

}  // namespace abg::trace
