#include "core/abagnale.hpp"

#include <algorithm>
#include <cmath>

#include "dsl/known_handlers.hpp"

namespace abg::core {

util::Status PipelineOptions::validate() const {
  auto bad = [](const std::string& msg) {
    return util::Status(util::StatusCode::kInvalidArgument, msg);
  };
  if (auto st = synth.validate(); !st.is_ok()) return st;
  if (min_segment_samples < 1) return bad("min_segment_samples must be >= 1");
  if (std::isnan(warmup_s) || warmup_s < 0.0) return bad("warmup_s must be finite and >= 0");
  if (dsl_override) {
    const auto names = dsl::curated_dsl_names();
    if (std::find(names.begin(), names.end(), *dsl_override) == names.end()) {
      return bad("unknown dsl_override '" + *dsl_override + "'");
    }
  }
  return util::Status::ok();
}

std::string PipelineResult::handler_string() const {
  return found() ? dsl::to_string(*synthesis.best.handler) : "<none>";
}

std::string dsl_for_classification(const classify::Classification& c) {
  auto hint_for = [](const std::string& cca) -> std::optional<std::string> {
    for (const auto& k : dsl::all_known_handlers()) {
      if (k.cca == cca) return k.dsl_hint;
    }
    return std::nullopt;
  };
  if (!c.is_unknown()) {
    if (auto h = hint_for(c.label)) return *h;
  }
  for (const auto& close : c.closest) {
    if (auto h = hint_for(close)) return *h;
  }
  return "vegas";
}

}  // namespace abg::core
