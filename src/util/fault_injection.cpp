#include "util/fault_injection.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>

#include "obs/registry.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace abg::util::fault {

namespace {

// The injector's state. The environment is read once, when the state is
// first touched, so ABG_FAULT_INJECT alone arms every hook; set_config()
// overrides it afterwards.
struct State {
  std::mutex mu;
  Config cfg;
  Rng rng{1};
  std::atomic<bool> active{false};

  State() {
    const char* spec = std::getenv("ABG_FAULT_INJECT");
    if (spec == nullptr || *spec == '\0') return;
    cfg = parse_spec(spec);
    rng = Rng(cfg.seed);
    active.store(cfg.any(), std::memory_order_relaxed);
    if (cfg.any()) {
      ABG_WARN("fault injection active: io=%.3f nan=%.3f cancel_after=%d seed=%llu",
               cfg.io_fail_prob, cfg.nan_prob, cfg.cancel_after_iterations,
               static_cast<unsigned long long>(cfg.seed));
    }
  }
};

State& state() {
  static State s;
  return s;
}

}  // namespace

Config parse_spec(const char* spec) {
  Config cfg;
  if (spec == nullptr) return cfg;
  std::string entry;
  const char* p = spec;
  auto consume = [&cfg](const std::string& e) {
    const auto eq = e.find('=');
    if (eq == std::string::npos) return;
    const std::string key = e.substr(0, eq);
    const std::string val = e.substr(eq + 1);
    double d = 0.0;
    std::uint64_t u = 0;
    if (key == "io" && parse_double(val, &d)) {
      cfg.io_fail_prob = d;
    } else if (key == "nan" && parse_double(val, &d)) {
      cfg.nan_prob = d;
    } else if (key == "cancel_after" && parse_u64(val, &u) &&
               u <= static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      cfg.cancel_after_iterations = static_cast<int>(u);
    } else if (key == "seed" && parse_u64(val, &u)) {
      cfg.seed = u;
    }
  };
  for (;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!entry.empty()) consume(entry);
      entry.clear();
      if (*p == '\0') break;
    } else if (*p != ' ') {
      entry += *p;
    }
  }
  return cfg;
}

Config config() {
  State& s = state();
  std::lock_guard lk(s.mu);
  return s.cfg;
}

void set_config(const Config& cfg) {
  State& s = state();
  std::lock_guard lk(s.mu);
  s.cfg = cfg;
  s.rng = Rng(cfg.seed);
  s.active.store(cfg.any(), std::memory_order_relaxed);
}

bool active() { return state().active.load(std::memory_order_relaxed); }

bool io_fail(const char* site) {
  if (!active()) return false;
  State& s = state();
  std::lock_guard lk(s.mu);
  if (s.cfg.io_fail_prob <= 0.0 || !s.rng.chance(s.cfg.io_fail_prob)) return false;
  static auto& c = obs::counter("fault.io_injected");
  c.add();
  ABG_DEBUG("fault: injected I/O failure at %s", site);
  return true;
}

bool corrupt(double* value, const char* site) {
  if (!active()) return false;
  State& s = state();
  std::lock_guard lk(s.mu);
  if (s.cfg.nan_prob <= 0.0 || !s.rng.chance(s.cfg.nan_prob)) return false;
  *value = std::numeric_limits<double>::quiet_NaN();
  static auto& c = obs::counter("fault.nan_injected");
  c.add();
  ABG_DEBUG("fault: injected NaN at %s", site);
  return true;
}

bool cancel_at(int iteration) {
  if (!active()) return false;
  State& s = state();
  std::lock_guard lk(s.mu);
  if (s.cfg.cancel_after_iterations < 0 || iteration < s.cfg.cancel_after_iterations) {
    return false;
  }
  static auto& c = obs::counter("fault.cancel_injected");
  c.add();
  ABG_DEBUG("fault: forced cancellation at iteration %d", iteration);
  return true;
}

}  // namespace abg::util::fault
