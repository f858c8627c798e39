#include "dist/wire.hpp"

#include <cmath>
#include <cstdio>

#include "util/csv.hpp"

namespace abg::dist {

std::string hex_double(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool parse_hex_double(const std::string& s, double* out) { return util::parse_double(s, out); }

void write_u64(obs::JsonWriter& w, std::uint64_t v) { w.value(std::to_string(v)); }

void write_double(obs::JsonWriter& w, double v) { w.value(hex_double(v)); }

void write_rng_state(obs::JsonWriter& w, const util::Rng::State& st) {
  w.begin_array();
  for (std::uint64_t word : st.s) write_u64(w, word);
  w.value(st.have_cached_normal ? "1" : "0");
  write_double(w, st.cached_normal);
  w.end_array();
}

void write_bucket_checkpoint(obs::JsonWriter& w, const synth::BucketCheckpoint& ck) {
  w.begin_object();
  w.key("label");
  w.value(ck.label);
  w.key("sketches");
  w.value(static_cast<std::uint64_t>(ck.sketches));
  w.key("handlers_scored");
  w.value(static_cast<std::uint64_t>(ck.handlers_scored));
  w.key("exhausted");
  w.value(ck.exhausted);
  w.key("rng");
  write_rng_state(w, ck.rng);
  w.key("best_distance");
  write_double(w, ck.best_distance);
  w.key("best_sketch");
  w.value(ck.best_sketch);
  w.key("best_handler");
  w.value(ck.best_handler);
  w.key("sketch_order");
  w.value(synth::kSketchOrder);
  w.end_object();
}

namespace {
util::Status bad(const std::string& msg) {
  return util::Status(util::StatusCode::kParseError, msg);
}
}  // namespace

util::Status u64_from_json(const util::JsonValue& j, const char* field, std::uint64_t* out) {
  if (!j.is_string() || !util::parse_u64(j.as_string(), out)) {
    return bad(std::string("'") + field + "' must be a decimal-string u64");
  }
  return util::Status::ok();
}

util::Status double_from_json(const util::JsonValue& j, const char* field, double* out) {
  if (!j.is_string() || !parse_hex_double(j.as_string(), out)) {
    return bad(std::string("'") + field + "' must be a hex-float string");
  }
  return util::Status::ok();
}

util::Status rng_state_from_json(const util::JsonValue& j, util::Rng::State* out) {
  if (!j.is_array() || j.items().size() != 6) {
    return bad("'rng' must be a 6-element array");
  }
  util::Rng::State st;
  for (int i = 0; i < 4; ++i) {
    if (auto s = u64_from_json(j.items()[static_cast<std::size_t>(i)], "rng", &st.s[i]);
        !s.is_ok()) {
      return s;
    }
  }
  const auto& flag = j.items()[4];
  if (!flag.is_string() || (flag.as_string() != "0" && flag.as_string() != "1")) {
    return bad("'rng' cached-normal flag must be \"0\" or \"1\"");
  }
  st.have_cached_normal = flag.as_string() == "1";
  if (auto s = double_from_json(j.items()[5], "rng", &st.cached_normal); !s.is_ok()) return s;
  *out = st;
  return util::Status::ok();
}

util::Status bucket_checkpoint_from_json(const util::JsonValue& j, synth::BucketCheckpoint* out) {
  if (!j.is_object()) return bad("bucket checkpoint must be an object");
  synth::BucketCheckpoint ck;

  const auto* label = j.find("label");
  if (label == nullptr || !label->is_string() || label->as_string().empty()) {
    return bad("'label' must be a non-empty string");
  }
  ck.label = label->as_string();

  auto read_count = [&](const char* key, std::size_t* out_count) -> util::Status {
    const auto* v = j.find(key);
    if (v == nullptr || !v->is_number() || v->as_double() < 0.0) {
      return bad(std::string("'") + key + "' must be a non-negative count");
    }
    *out_count = static_cast<std::size_t>(v->as_int());
    return util::Status::ok();
  };
  if (auto s = read_count("sketches", &ck.sketches); !s.is_ok()) return s;
  if (auto s = read_count("handlers_scored", &ck.handlers_scored); !s.is_ok()) return s;

  const auto* exhausted = j.find("exhausted");
  if (exhausted == nullptr || !exhausted->is_bool()) return bad("'exhausted' must be a bool");
  ck.exhausted = exhausted->as_bool();

  const auto* rng = j.find("rng");
  if (rng == nullptr) return bad("missing 'rng'");
  if (auto s = rng_state_from_json(*rng, &ck.rng); !s.is_ok()) return s;

  const auto* bd = j.find("best_distance");
  if (bd == nullptr) return bad("missing 'best_distance'");
  if (auto s = double_from_json(*bd, "best_distance", &ck.best_distance); !s.is_ok()) return s;

  const auto* bs = j.find("best_sketch");
  const auto* bh = j.find("best_handler");
  if (bs == nullptr || !bs->is_string() || bh == nullptr || !bh->is_string()) {
    return bad("'best_sketch'/'best_handler' must be strings");
  }
  ck.best_sketch = bs->as_string();
  ck.best_handler = bh->as_string();

  // 'sketches' counts in the sender's enumeration order; a state from a
  // process that enumerates in another order would re-derive other sketches.
  const auto* order = j.find("sketch_order");
  if (order == nullptr || !order->is_string() || order->as_string() != synth::kSketchOrder) {
    return bad("bucket '" + ck.label + "' was written under another sketch order (want '" +
               synth::kSketchOrder + "')");
  }

  *out = std::move(ck);
  return util::Status::ok();
}

}  // namespace abg::dist
