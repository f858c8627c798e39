// Env/flag-driven fault injector (CC-Fuzz-style adversarial stress, applied
// to our own runtime): probabilistic I/O failure, NaN signal corruption, and
// forced mid-run cancellation, so the chaos tests can prove every
// degradation path returns a tagged Result instead of crashing or hanging.
//
// Configuration comes from the ABG_FAULT_INJECT environment variable
// ("io=0.1,nan=0.05,cancel_after=2,seed=9") or programmatically via
// set_config() (tests). With no faults configured, every hook is a single
// relaxed atomic-bool load — safe to leave compiled into the hot paths.
//
// Injections are counted in the obs registry: "fault.io_injected",
// "fault.nan_injected", "fault.cancel_injected".
#pragma once

#include <cstdint>

namespace abg::util::fault {

struct Config {
  double io_fail_prob = 0.0;        // io=<p>   : save/load calls fail with kIoError
  double nan_prob = 0.0;            // nan=<p>  : replayed signal values become NaN
  int cancel_after_iterations = -1; // cancel_after=<n> : cancel refinement at iter n
  std::uint64_t seed = 1;           // seed=<s> : injector RNG seed

  bool any() const {
    return io_fail_prob > 0.0 || nan_prob > 0.0 || cancel_after_iterations >= 0;
  }
};

// Parse an ABG_FAULT_INJECT-style spec. Unknown or malformed entries are
// ignored (the injector must never itself be a crash source).
Config parse_spec(const char* spec);

// Current config: ABG_FAULT_INJECT, read once when any hook or accessor is
// first called, unless set_config() has replaced it.
Config config();

// Replace the config (tests). Resets the injector RNG to cfg.seed.
void set_config(const Config& cfg);

// True when any fault class is enabled (one relaxed load).
bool active();

// Probabilistic hooks. `site` names the call site for log messages.
bool io_fail(const char* site);          // true => caller must fail with kIoError
bool corrupt(double* value, const char* site);  // true => *value was set to NaN
bool cancel_at(int iteration);           // true => caller should cancel now

}  // namespace abg::util::fault
