// Strict ingestion validation (and opt-in repair) for traces arriving from
// outside the simulator — CSV files, externally converted pcaps, fuzzed
// inputs. The synthesis core assumes finite, positively-sized windows and a
// monotonic clock; this is where that contract is enforced, so a corrupted
// vantage-point capture degrades into a tagged error (or a repaired trace
// with counted drops) instead of a silently mis-synthesized handler.
#pragma once

#include <cstddef>

#include "trace/trace.hpp"
#include "util/status.hpp"

namespace abg::obs {
class Counter;
}

namespace abg::trace {

struct ValidateOptions {
  // Strict mode (false): the first bad sample fails the whole trace with
  // kInvalidTrace/kNumericError. Repair mode (true): bad samples are dropped
  // (non-finite fields, non-positive windows, clock regressions) or clamped
  // (negative byte/rate counts -> 0), and the trace survives if any samples
  // remain. Counts are reported via `stats` and the obs counters
  // "trace.rows_dropped" / "trace.rows_repaired".
  bool repair = false;
};

struct ValidateStats {
  std::size_t rows_dropped = 0;
  std::size_t rows_repaired = 0;
};

// The "trace.rows_dropped" counter, shared by validate_trace and the CSV
// loader's repair mode.
obs::Counter& rows_dropped_counter();

// Validates (and in repair mode rewrites) `t` in place.
util::Status validate_trace(Trace& t, const ValidateOptions& opts = {},
                            ValidateStats* stats = nullptr);

}  // namespace abg::trace
