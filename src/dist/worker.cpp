#include "dist/worker.hpp"

#include <utility>

#include "api/manifest.hpp"
#include "dist/wire.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "util/json_parse.hpp"
#include "util/log.hpp"

namespace abg::dist {

namespace {

obs::HttpResponse status_error(int http_code, const util::Status& st) {
  return obs::error_response(http_code, util::status_code_name(st.code()), st.to_string());
}

obs::HttpResponse parse_error(const std::string& msg) {
  return obs::error_response(400, "parse-error", msg);
}

// Read a JSON object body; nullopt (with *resp filled) when malformed.
bool parse_body(const obs::HttpRequest& req, util::JsonValue* doc, obs::HttpResponse* resp) {
  auto parsed = util::parse_json(req.body);
  if (!parsed.ok()) {
    *resp = status_error(400, parsed.status());
    return false;
  }
  if (!parsed->is_object()) {
    *resp = parse_error("request body must be a JSON object");
    return false;
  }
  *doc = std::move(*parsed);
  return true;
}

bool read_u64_field(const util::JsonValue& doc, const char* key, std::uint64_t* out,
                    obs::HttpResponse* resp) {
  const auto* v = doc.find(key);
  if (v == nullptr || !v->is_number() || v->as_double() < 0.0) {
    *resp = parse_error(std::string("'") + key + "' must be a non-negative number");
    return false;
  }
  *out = static_cast<std::uint64_t>(v->as_int());
  return true;
}

bool read_label_array(const util::JsonValue& doc, const char* key,
                      std::vector<std::string>* out, obs::HttpResponse* resp) {
  const auto* v = doc.find(key);
  if (v == nullptr || !v->is_array()) {
    *resp = parse_error(std::string("'") + key + "' must be an array of bucket labels");
    return false;
  }
  out->clear();
  for (const auto& item : v->items()) {
    if (!item.is_string() || item.as_string().empty()) {
      *resp = parse_error(std::string("'") + key + "' entries must be non-empty strings");
      return false;
    }
    out->push_back(item.as_string());
  }
  return true;
}

}  // namespace

Worker::Worker() = default;

Worker::~Worker() {
  cancel_.cancel();
  if (pass_joinable_ && pass_thread_.joinable()) pass_thread_.join();
}

void Worker::mount(obs::StatusServer& server) {
  server.route("POST", "/shard/load",
               [this](const obs::HttpRequest& req) { return handle_load(req); });
  server.route("POST", "/shard/iterate",
               [this](const obs::HttpRequest& req) { return handle_iterate(req); });
  server.route("GET", "/shard/status",
               [this](const obs::HttpRequest& req) { return handle_status(req); });
  server.route("POST", "/shard/restore",
               [this](const obs::HttpRequest& req) { return handle_restore(req); });
  server.route("POST", "/shard/quit",
               [this](const obs::HttpRequest& req) { return handle_quit(req); });
}

void Worker::join_pass_locked() {
  if (pass_joinable_ && pass_thread_.joinable()) {
    pass_thread_.join();
    pass_joinable_ = false;
  }
}

obs::HttpResponse Worker::handle_load(const obs::HttpRequest& req) {
  util::JsonValue doc;
  obs::HttpResponse err;
  if (!parse_body(req, &doc, &err)) return err;

  std::uint64_t epoch = 0;
  if (!read_u64_field(doc, "epoch", &epoch, &err)) return err;

  const auto* spec_json = doc.find("spec");
  if (spec_json == nullptr || !spec_json->is_object()) {
    return parse_error("'spec' must be a job-spec object");
  }
  api::JobSpec spec;
  if (auto st = api::spec_from_json(*spec_json, &spec); !st.is_ok()) {
    return status_error(400, st);
  }
  if (auto st = spec.validate(); !st.is_ok()) return status_error(400, st);
  if (!spec.pipeline.dsl_override) {
    // The coordinator classifies; a worker never guesses the search space.
    return obs::error_response(400, "invalid-argument",
                               "shard spec must carry a resolved 'dsl'");
  }

  std::vector<std::string> labels;
  if (!read_label_array(doc, "buckets", &labels, &err)) return err;

  std::vector<synth::BucketCheckpoint> states;
  if (const auto* sv = doc.find("states"); sv != nullptr) {
    if (!sv->is_array()) return parse_error("'states' must be an array");
    for (const auto& item : sv->items()) {
      synth::BucketCheckpoint ck;
      if (auto st = bucket_checkpoint_from_json(item, &ck); !st.is_ok()) {
        return status_error(400, st);
      }
      states.push_back(std::move(ck));
    }
  }

  std::lock_guard lk(mu_);
  if (state_ == State::kBusy) {
    return obs::error_response(409, "busy", "a pass is running; cannot reload");
  }
  join_pass_locked();

  // Rebuild the segment pool with the same front half as a local run.
  auto prepared = api::prepare(spec);
  if (!prepared.ok()) return status_error(400, prepared.status());

  synth::SynthesisOptions opts = spec.pipeline.synth;
  opts.checkpoint_path.clear();  // the coordinator owns durability
  opts.resume = false;

  engine_ = std::make_unique<synth::ShardEngine>(std::move(prepared->dsl),
                                                 std::move(prepared->segments), opts);
  for (const auto& label : labels) {
    // Fresh start unless the coordinator supplied a state for this label.
    bool adopted = false;
    for (const auto& ck : states) {
      if (ck.label == label) {
        if (auto st = engine_->adopt_bucket(ck); !st.is_ok()) return status_error(400, st);
        adopted = true;
        break;
      }
    }
    if (!adopted) {
      if (auto st = engine_->add_bucket(label); !st.is_ok()) return status_error(400, st);
    }
  }

  epoch_ = epoch;
  pass_id_ = 0;
  pass_result_.clear();
  pass_status_ = util::Status::ok();
  state_ = State::kIdle;

  static auto& c_loads = obs::counter("dist.worker.loads");
  c_loads.add();
  ABG_INFO("shard loaded: epoch=%llu, %zu buckets, %zu segments",
           static_cast<unsigned long long>(epoch_), labels.size(), engine_->segment_count());

  obs::JsonWriter w;
  w.begin_object();
  w.key("pool_fingerprint");
  write_u64(w, engine_->pool_fingerprint());
  w.key("segments");
  w.value(static_cast<std::uint64_t>(engine_->segment_count()));
  w.key("epoch");
  w.value(epoch_);
  w.end_object();
  return obs::HttpResponse::json(200, w.take());
}

obs::HttpResponse Worker::handle_iterate(const obs::HttpRequest& req) {
  util::JsonValue doc;
  obs::HttpResponse err;
  if (!parse_body(req, &doc, &err)) return err;

  std::uint64_t epoch = 0, pass_id = 0, target = 0;
  if (!read_u64_field(doc, "epoch", &epoch, &err)) return err;
  if (!read_u64_field(doc, "pass_id", &pass_id, &err)) return err;
  if (!read_u64_field(doc, "target", &target, &err)) return err;
  std::vector<std::string> labels;
  if (!read_label_array(doc, "buckets", &labels, &err)) return err;

  std::vector<std::size_t> working;
  if (const auto* wv = doc.find("working"); wv != nullptr) {
    if (!wv->is_array()) return parse_error("'working' must be an array of segment indices");
    for (const auto& item : wv->items()) {
      if (!item.is_number() || item.as_double() < 0.0) {
        return parse_error("'working' entries must be non-negative indices");
      }
      working.push_back(static_cast<std::size_t>(item.as_int()));
    }
  }

  std::lock_guard lk(mu_);
  if (state_ == State::kEmpty) {
    return obs::error_response(409, "conflict", "no shard loaded; POST /shard/load first");
  }
  if (state_ == State::kBusy) {
    return obs::error_response(409, "busy",
                               "pass " + std::to_string(pass_id_) + " still running");
  }
  if (epoch != epoch_) {
    return obs::error_response(409, "conflict",
                               "epoch mismatch: have " + std::to_string(epoch_) + ", got " +
                                   std::to_string(epoch));
  }
  for (const auto& label : labels) {
    if (!engine_->has_bucket(label)) {
      return obs::error_response(409, "conflict", "bucket " + label + " not owned by this shard");
    }
  }
  join_pass_locked();

  state_ = State::kBusy;
  pass_id_ = pass_id;
  pass_result_.clear();
  pass_status_ = util::Status::ok();
  pass_thread_ = std::thread([this, labels = std::move(labels), target,
                              working = std::move(working)] {
    auto r = engine_->run_pass(labels, static_cast<std::size_t>(target), working, &cancel_);
    std::lock_guard inner(mu_);
    if (r.ok()) {
      pass_result_ = std::move(*r);
      pass_status_ = util::Status::ok();
    } else {
      pass_status_ = r.status();
    }
    state_ = State::kDone;
  });
  pass_joinable_ = true;

  static auto& c_passes = obs::counter("dist.worker.passes");
  c_passes.add();

  obs::JsonWriter w;
  w.begin_object();
  w.key("pass_id");
  w.value(pass_id);
  w.end_object();
  return obs::HttpResponse::json(202, w.take());
}

obs::HttpResponse Worker::handle_status(const obs::HttpRequest&) {
  std::lock_guard lk(mu_);
  obs::JsonWriter w;
  w.begin_object();
  w.key("state");
  switch (state_) {
    case State::kEmpty:
      w.value("empty");
      break;
    case State::kIdle:
      w.value("idle");
      break;
    case State::kBusy:
      w.value("busy");
      break;
    case State::kDone:
      w.value("done");
      break;
  }
  w.key("epoch");
  w.value(epoch_);
  w.key("pass_id");
  w.value(pass_id_);
  if (state_ == State::kDone) {
    if (pass_status_.is_ok()) {
      w.key("checkpoints");
      w.begin_array();
      for (const auto& ck : pass_result_) write_bucket_checkpoint(w, ck);
      w.end_array();
    } else {
      w.key("pass_error");
      w.value(pass_status_.to_string());
    }
  }
  w.end_object();
  return obs::HttpResponse::json(200, w.take());
}

obs::HttpResponse Worker::handle_restore(const obs::HttpRequest& req) {
  util::JsonValue doc;
  obs::HttpResponse err;
  if (!parse_body(req, &doc, &err)) return err;

  std::uint64_t epoch = 0;
  if (!read_u64_field(doc, "epoch", &epoch, &err)) return err;
  const auto* sv = doc.find("states");
  if (sv == nullptr || !sv->is_array()) return parse_error("'states' must be an array");
  std::vector<synth::BucketCheckpoint> states;
  for (const auto& item : sv->items()) {
    synth::BucketCheckpoint ck;
    if (auto st = bucket_checkpoint_from_json(item, &ck); !st.is_ok()) {
      return status_error(400, st);
    }
    states.push_back(std::move(ck));
  }

  std::lock_guard lk(mu_);
  if (state_ == State::kEmpty) {
    return obs::error_response(409, "conflict", "no shard loaded; POST /shard/load first");
  }
  if (state_ == State::kBusy) {
    return obs::error_response(409, "busy", "a pass is running; cannot restore");
  }
  if (epoch != epoch_) {
    return obs::error_response(409, "conflict", "epoch mismatch");
  }
  join_pass_locked();
  for (const auto& ck : states) {
    if (auto st = engine_->adopt_bucket(ck); !st.is_ok()) return status_error(400, st);
  }
  static auto& c_adopted = obs::counter("dist.worker.buckets_adopted");
  c_adopted.add(states.size());

  obs::JsonWriter w;
  w.begin_object();
  w.key("adopted");
  w.value(static_cast<std::uint64_t>(states.size()));
  w.end_object();
  return obs::HttpResponse::json(200, w.take());
}

obs::HttpResponse Worker::handle_quit(const obs::HttpRequest&) {
  cancel_.cancel();
  quit_.store(true, std::memory_order_release);
  return obs::HttpResponse::json(200, "{\"quitting\":true}\n");
}

}  // namespace abg::dist
