#include "dist/coordinator.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "api/manifest.hpp"
#include "dist/http_client.hpp"
#include "dist/wire.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "synth/buckets.hpp"
#include "synth/checkpoint.hpp"
#include "synth/shard.hpp"
#include "util/csv.hpp"
#include "util/json_parse.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace abg::dist {

namespace {

util::Status invalid(const std::string& msg) {
  return util::Status(util::StatusCode::kInvalidArgument, msg);
}

// Coordinator-side view of one worker process.
struct WorkerView {
  WorkerEndpoint ep;
  bool alive = true;
  bool busy = false;
  int failures = 0;  // consecutive RPC failures; reset on any success
  // Labels of the pass group in flight on this worker.
  std::vector<std::string> inflight;
  // Labels queued for this worker but not yet issued this pass; entries
  // flagged true must be restored from committed state first (reassignment).
  std::vector<std::pair<std::string, bool>> queue;
};

std::string endpoint_name(const WorkerEndpoint& ep) {
  return ep.host + ":" + std::to_string(ep.port);
}

// The whole distributed-run state, so helpers can share it without a
// ten-argument signature.
struct Run {
  explicit Run(const CoordinatorOptions& c) : copts(c) {}

  const CoordinatorOptions& copts;
  std::uint64_t pool_fingerprint = 0;
  std::string spec_json;  // codec-serialized spec shipped to every worker

  std::vector<WorkerView> workers;
  std::vector<synth::Bucket> buckets;              // make_buckets order
  std::map<std::string, std::size_t> bucket_index;  // label -> index
  std::vector<synth::BucketCheckpoint> committed;  // last completed pass, per bucket
  std::vector<std::size_t> owner;                  // bucket index -> worker index
  std::uint64_t epoch = 1;
  std::uint64_t next_pass_id = 1;

  const util::CancellationToken* tok = nullptr;  // the driver's, during a pass
  std::size_t reassigned = 0;
};

std::size_t alive_count(const Run& run) {
  std::size_t n = 0;
  for (const auto& w : run.workers) n += w.alive ? 1 : 0;
  return n;
}

void mark_dead(Run& run, std::size_t wi, const char* why) {
  if (!run.workers[wi].alive) return;
  run.workers[wi].alive = false;
  run.workers[wi].busy = false;
  static auto& c_lost = obs::counter("dist.workers_lost");
  c_lost.add();
  ABG_WARN("worker %s declared dead (%s); %zu still alive",
           endpoint_name(run.workers[wi].ep).c_str(), why, alive_count(run));
}

// The alive worker with the fewest queued + in-flight labels.
std::size_t least_loaded_alive(const Run& run) {
  std::size_t best = run.workers.size();
  std::size_t best_load = 0;
  for (std::size_t i = 0; i < run.workers.size(); ++i) {
    if (!run.workers[i].alive) continue;
    const std::size_t load = run.workers[i].queue.size() + run.workers[i].inflight.size();
    if (best == run.workers.size() || load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;  // == workers.size() when none alive
}

util::Result<HttpReply> rpc(Run& run, std::size_t wi, const std::string& method,
                            const std::string& path, const std::string& body) {
  auto r = http_request(run.workers[wi].ep.host, run.workers[wi].ep.port, method, path, body,
                        run.copts.rpc_timeout_s);
  if (r.ok()) {
    run.workers[wi].failures = 0;
  } else {
    ++run.workers[wi].failures;
  }
  return r;
}

// Move every queued/in-flight label of a dead worker to a surviving one,
// flagged for restore (the survivor must adopt the committed state before
// re-running the pass). Also repoints the owner map so later passes land on
// the adopter directly.
util::Status reassign_from(Run& run, std::size_t dead_wi) {
  WorkerView& dead = run.workers[dead_wi];
  std::vector<std::pair<std::string, bool>> orphans = std::move(dead.queue);
  for (const auto& label : dead.inflight) orphans.emplace_back(label, true);
  dead.queue.clear();
  dead.inflight.clear();
  if (orphans.empty()) return util::Status::ok();

  static auto& c_reassigned = obs::counter("dist.shards_reassigned");
  for (auto& [label, _] : orphans) {
    const std::size_t target = least_loaded_alive(run);
    if (target == run.workers.size()) {
      return util::Status(util::StatusCode::kIoError,
                          "all workers lost; cannot reassign bucket " + label);
    }
    run.workers[target].queue.emplace_back(label, true);
    run.owner[run.bucket_index.at(label)] = target;
    ++run.reassigned;
    c_reassigned.add();
    ABG_INFO("bucket %s reassigned to %s", label.c_str(),
             endpoint_name(run.workers[target].ep).c_str());
  }
  return util::Status::ok();
}

// POST /shard/load to worker `wi` with its currently-owned buckets and their
// committed states. Used at job start and never after (mid-run adoption goes
// through /shard/restore, which preserves the worker's other buckets).
util::Status load_worker(Run& run, std::size_t wi) {
  std::vector<std::size_t> owned;
  for (std::size_t b = 0; b < run.buckets.size(); ++b) {
    if (run.owner[b] == wi) owned.push_back(b);
  }
  obs::JsonWriter w;
  w.begin_object();
  w.key("epoch");
  w.value(run.epoch);
  w.key("spec");
  w.raw(run.spec_json);
  w.key("buckets");
  w.begin_array();
  for (std::size_t b : owned) w.value(run.buckets[b].label);
  w.end_array();
  w.key("states");
  w.begin_array();
  for (std::size_t b : owned) write_bucket_checkpoint(w, run.committed[b]);
  w.end_array();
  w.end_object();

  auto r = rpc(run, wi, "POST", "/shard/load", w.take());
  if (!r.ok()) return r.status();
  if (r->code != 200) {
    return util::Status(util::StatusCode::kUnknown,
                        "worker " + endpoint_name(run.workers[wi].ep) + " rejected load: " +
                            r->body);
  }
  auto doc = util::parse_json(r->body);
  if (!doc.ok()) return doc.status().with_context("load reply");
  const auto* fp = doc->find("pool_fingerprint");
  std::uint64_t worker_fp = 0;
  if (fp == nullptr || !u64_from_json(*fp, "pool_fingerprint", &worker_fp).is_ok()) {
    return util::Status(util::StatusCode::kParseError, "malformed load reply");
  }
  if (worker_fp != run.pool_fingerprint) {
    // The worker derived a different segment pool from the same spec —
    // mismatched trace files on its filesystem. Running it would silently
    // search a different problem.
    return util::Status(util::StatusCode::kInvalidTrace,
                        "worker " + endpoint_name(run.workers[wi].ep) +
                            " segment-pool fingerprint mismatch (different trace data?)");
  }
  return util::Status::ok();
}

// Run one distributed pass over `labels` (in live order): issue per-worker
// iterate RPCs, poll, reassign on death, and return the post-pass
// checkpoints keyed by label. Cancellation aborts with the token's reason.
util::Status run_remote_pass(Run& run, const std::vector<std::string>& labels,
                             std::size_t target, const std::vector<std::size_t>& working,
                             std::map<std::string, synth::BucketCheckpoint>* out) {
  static auto& c_passes = obs::counter("dist.passes");
  c_passes.add();

  // Queue every label on its owner, initially without restore (the owner
  // already holds the bucket from load or an earlier pass).
  for (const auto& label : labels) {
    const std::size_t wi = run.owner.at(run.bucket_index.at(label));
    if (!run.workers[wi].alive) {
      // Owner died in an earlier pass and this bucket was not live then;
      // route it like any orphan.
      const std::size_t t = least_loaded_alive(run);
      if (t == run.workers.size()) {
        return util::Status(util::StatusCode::kIoError, "all workers lost");
      }
      run.owner[run.bucket_index.at(label)] = t;
      run.workers[t].queue.emplace_back(label, true);
      ++run.reassigned;
      obs::counter("dist.shards_reassigned").add();
    } else {
      run.workers[wi].queue.emplace_back(label, false);
    }
  }

  const std::string working_json = [&] {
    obs::JsonWriter w;
    w.begin_array();
    for (std::size_t idx : working) w.value(static_cast<std::uint64_t>(idx));
    w.end_array();
    return w.take();
  }();

  std::size_t collected = 0;
  while (collected < labels.size()) {
    if (run.tok->cancelled()) {
      return util::Status(run.tok->reason(), "distributed pass interrupted");
    }

    // Issue queued groups to every idle alive worker.
    for (std::size_t wi = 0; wi < run.workers.size(); ++wi) {
      WorkerView& wv = run.workers[wi];
      if (!wv.alive || wv.busy || wv.queue.empty()) continue;

      // Restore first where needed (adopting a dead peer's committed state).
      std::vector<std::size_t> restore;
      for (const auto& [label, needs_restore] : wv.queue) {
        if (needs_restore) restore.push_back(run.bucket_index.at(label));
      }
      if (!restore.empty()) {
        obs::JsonWriter w;
        w.begin_object();
        w.key("epoch");
        w.value(run.epoch);
        w.key("states");
        w.begin_array();
        for (std::size_t b : restore) write_bucket_checkpoint(w, run.committed[b]);
        w.end_array();
        w.end_object();
        auto r = rpc(run, wi, "POST", "/shard/restore", w.take());
        if (!r.ok() || r->code != 200) {
          if (run.workers[wi].failures >= run.copts.max_rpc_failures || (r.ok() && r->code != 200)) {
            mark_dead(run, wi, "restore failed");
            if (auto st = reassign_from(run, wi); !st.is_ok()) return st;
          }
          continue;
        }
      }

      obs::JsonWriter w;
      w.begin_object();
      w.key("epoch");
      w.value(run.epoch);
      w.key("pass_id");
      w.value(run.next_pass_id);
      w.key("target");
      w.value(static_cast<std::uint64_t>(target));
      w.key("buckets");
      w.begin_array();
      for (const auto& [label, _] : wv.queue) w.value(label);
      w.end_array();
      w.key("working");
      w.raw(working_json);
      w.end_object();
      auto r = rpc(run, wi, "POST", "/shard/iterate", w.take());
      if (!r.ok()) {
        if (wv.failures >= run.copts.max_rpc_failures) {
          mark_dead(run, wi, "iterate failed");
          if (auto st = reassign_from(run, wi); !st.is_ok()) return st;
        }
        continue;
      }
      if (r->code != 202) {
        mark_dead(run, wi, ("iterate rejected: " + r->body).c_str());
        if (auto st = reassign_from(run, wi); !st.is_ok()) return st;
        continue;
      }
      wv.inflight.clear();
      for (const auto& [label, _] : wv.queue) wv.inflight.push_back(label);
      wv.queue.clear();
      wv.busy = true;
      ++run.next_pass_id;
    }

    bool any_busy = false;
    for (const auto& wv : run.workers) any_busy = any_busy || wv.busy;
    if (!any_busy) {
      // Nothing in flight and nothing issuable; if labels remain, every
      // carrier died without a survivor to take over.
      bool pending = false;
      for (const auto& wv : run.workers) pending = pending || !wv.queue.empty();
      if (!pending && collected < labels.size()) {
        return util::Status(util::StatusCode::kIoError, "all workers lost mid-pass");
      }
      if (pending && alive_count(run) == 0) {
        return util::Status(util::StatusCode::kIoError, "all workers lost mid-pass");
      }
      continue;
    }

    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(run.copts.poll_interval_s * 1e6)));

    // Poll the busy workers.
    for (std::size_t wi = 0; wi < run.workers.size(); ++wi) {
      WorkerView& wv = run.workers[wi];
      if (!wv.alive || !wv.busy) continue;
      auto r = rpc(run, wi, "GET", "/shard/status", "");
      if (!r.ok()) {
        if (wv.failures >= run.copts.max_rpc_failures) {
          mark_dead(run, wi, "status poll failed");
          if (auto st = reassign_from(run, wi); !st.is_ok()) return st;
        }
        continue;
      }
      auto doc = util::parse_json(r->body);
      if (!doc.ok() || !doc->is_object()) {
        mark_dead(run, wi, "malformed status reply");
        if (auto st = reassign_from(run, wi); !st.is_ok()) return st;
        continue;
      }
      const auto* state = doc->find("state");
      const std::string s = state != nullptr && state->is_string() ? state->as_string() : "";
      if (s == "busy") continue;
      if (s != "done") {
        mark_dead(run, wi, ("unexpected worker state '" + s + "'").c_str());
        if (auto st = reassign_from(run, wi); !st.is_ok()) return st;
        continue;
      }
      if (const auto* pe = doc->find("pass_error"); pe != nullptr) {
        // The pass itself failed on an intact worker (e.g. a corrupt restore
        // payload): a real error, not a death to route around.
        return util::Status(util::StatusCode::kUnknown,
                            "worker " + endpoint_name(wv.ep) + " pass failed: " +
                                (pe->is_string() ? pe->as_string() : "?"));
      }
      const auto* cks = doc->find("checkpoints");
      if (cks == nullptr || !cks->is_array() || cks->items().size() != wv.inflight.size()) {
        mark_dead(run, wi, "malformed pass result");
        if (auto st = reassign_from(run, wi); !st.is_ok()) return st;
        continue;
      }
      bool ok = true;
      for (const auto& item : cks->items()) {
        synth::BucketCheckpoint ck;
        if (auto st = bucket_checkpoint_from_json(item, &ck); !st.is_ok()) {
          mark_dead(run, wi, ("undecodable checkpoint: " + st.to_string()).c_str());
          if (auto rst = reassign_from(run, wi); !rst.is_ok()) return rst;
          ok = false;
          break;
        }
        (*out)[ck.label] = std::move(ck);
      }
      if (!ok) continue;
      collected += wv.inflight.size();
      wv.inflight.clear();
      wv.busy = false;
    }
  }
  return util::Status::ok();
}

// Ship the job to every worker (POST /shard/load). Workers that fail to load
// are declared dead and their buckets move to survivors; a worker that
// answers wrongly is a configuration error, not a crash to route around.
util::Status load_workers(Run& run) {
  for (std::size_t wi = 0; wi < run.workers.size(); ++wi) {
    if (auto st = load_worker(run, wi); !st.is_ok()) {
      if (st.code() == util::StatusCode::kInvalidTrace ||
          st.code() == util::StatusCode::kUnknown || st.code() == util::StatusCode::kParseError) {
        return st;
      }
      mark_dead(run, wi, "load failed");
    }
  }
  if (alive_count(run) == 0) {
    return util::Status(util::StatusCode::kIoError, "no worker accepted the job");
  }
  // The committed state is still fresh, so restore-at-iterate is cheap.
  for (std::size_t b = 0; b < run.buckets.size(); ++b) {
    if (!run.workers[run.owner[b]].alive) run.owner[b] = least_loaded_alive(run);
  }
  obs::gauge("dist.workers").set(static_cast<double>(alive_count(run)));
  return util::Status::ok();
}

// The remote pass executor: synth::synthesize() drives the search, the
// workers run the passes. Every bucket's committed state is the checkpoint of
// its last completed pass; that is what snapshot() hands to the driver's
// checkpoint file and what a reassigned bucket is restored from.
class RemoteExecutor final : public synth::PassExecutor {
 public:
  RemoteExecutor(Run& run, std::size_t threads)
      : run_(run), threads_(threads), summaries_(run.buckets.size()) {
    for (std::size_t b = 0; b < run.buckets.size(); ++b) summaries_[b].label = run.buckets[b].label;
  }

  std::size_t bucket_count() const override { return run_.buckets.size(); }

  // Workers are loaded on the first pass, after any checkpoint restore, so
  // they start from the restored committed states.
  util::Status run_pass(const std::vector<std::size_t>& buckets, std::size_t target,
                        const std::vector<std::size_t>& working, int,
                        const util::CancellationToken& tok,
                        std::vector<std::size_t>* complete) override {
    if (!loaded_) {
      if (auto st = load_workers(run_); !st.is_ok()) return st;
      loaded_ = true;
    }
    std::vector<std::string> labels;
    for (std::size_t b : buckets) labels.push_back(run_.buckets[b].label);
    std::map<std::string, synth::BucketCheckpoint> outcome;
    run_.tok = &tok;
    const util::Status st = run_remote_pass(run_, labels, target, working, &outcome);
    // Commit what came back, in the driver's order; an interrupted pass
    // reports only the buckets whose checkpoints arrived.
    for (std::size_t b : buckets) {
      const auto it = outcome.find(run_.buckets[b].label);
      if (it == outcome.end()) {
        if (st.is_ok()) {
          return util::Status(util::StatusCode::kUnknown,
                              "pass result missing bucket " + run_.buckets[b].label);
        }
        continue;
      }
      if (auto rst = restore(b, it->second); !rst.is_ok()) return rst;
      complete->push_back(b);
    }
    return st;
  }

  synth::BucketSummary summary(std::size_t bucket) const override { return summaries_[bucket]; }
  synth::BucketCheckpoint snapshot(std::size_t bucket) const override {
    return run_.committed[bucket];
  }
  util::Status restore(std::size_t bucket, const synth::BucketCheckpoint& ck) override {
    auto best = synth::parse_scored_handler(ck.best_distance, ck.best_sketch, ck.best_handler);
    if (!best.ok()) return best.status().with_context("bucket " + ck.label);
    run_.committed[bucket] = ck;
    summaries_[bucket] = {ck.label, *best, ck.sketches, ck.handlers_scored, ck.exhausted};
    return util::Status::ok();
  }

  // Final validation runs here, on the coordinator.
  util::ThreadPool& pool() override {
    if (!pool_) {
      pool_ = std::make_unique<util::ThreadPool>(
          threads_ == 0 ? std::thread::hardware_concurrency() : threads_);
    }
    return *pool_;
  }

 private:
  Run& run_;
  std::size_t threads_;
  std::vector<synth::BucketSummary> summaries_;
  std::unique_ptr<util::ThreadPool> pool_;
  bool loaded_ = false;
};

}  // namespace

util::Result<std::vector<WorkerEndpoint>> parse_worker_endpoints(const std::string& list) {
  std::vector<WorkerEndpoint> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    std::string item = list.substr(start, comma - start);
    const bool last = comma == list.size();
    start = comma + 1;
    // Tolerate surrounding whitespace ("7001, 7002") but treat an empty
    // token as a typo, not a no-op — a silently shrunk fleet is worse.
    while (!item.empty() && std::isspace(static_cast<unsigned char>(item.front()))) {
      item.erase(item.begin());
    }
    while (!item.empty() && std::isspace(static_cast<unsigned char>(item.back()))) {
      item.pop_back();
    }
    if (item.empty()) {
      if (last && out.empty() && start > list.size()) break;  // whole list empty
      return invalid("empty worker endpoint in list '" + list + "'");
    }
    WorkerEndpoint ep;
    const std::size_t colon = item.rfind(':');
    std::string port_str = item;
    if (colon != std::string::npos) {
      ep.host = item.substr(0, colon);
      if (ep.host.empty()) {
        return invalid("bad worker endpoint '" + item + "' (empty host)");
      }
      port_str = item.substr(colon + 1);
    }
    std::uint64_t port = 0;
    if (!util::parse_u64(port_str, &port) || port == 0 || port > 65535) {
      return invalid("bad worker endpoint '" + item + "' (want host:port)");
    }
    ep.port = static_cast<std::uint16_t>(port);
    out.push_back(std::move(ep));
  }
  if (out.empty()) return invalid("empty worker list");
  return out;
}

bool spec_is_distributable(const api::JobSpec& spec) {
  return spec.kind == api::JobSpec::Kind::kPipeline && !spec.trace_paths.empty() &&
         spec.segments.empty() && spec.traces.empty() && !spec.custom_dsl;
}

Coordinator::Coordinator(CoordinatorOptions opts) : opts_(std::move(opts)) {}

api::JobResult Coordinator::run(const api::JobSpec& spec,
                                const util::CancellationToken* cancel) {
  util::Stopwatch clock;
  api::JobResult out;
  out.name = spec.name;
  out.kind = spec.kind;

  auto fail = [&](util::Status st) {
    out.status = std::move(st);
    out.seconds = clock.elapsed_seconds();
    return out;
  };

  if (opts_.workers.empty()) return fail(invalid("no workers configured"));
  if (!spec_is_distributable(spec)) {
    return fail(invalid(
        "distributed mode runs pipeline jobs over trace paths only (pre-segmented input, "
        "in-memory traces, and custom DSL objects cannot be shipped to workers)"));
  }
  if (auto st = spec.validate(); !st.is_ok()) return fail(st);

  auto prepared = api::prepare(spec);
  if (!prepared.ok()) return fail(prepared.status());

  synth::SynthesisOptions opts = spec.pipeline.synth;
  opts.dopts = synth::effective_distance_options(opts);
  opts.cancel = cancel;
  opts.on_iteration = spec.on_iteration;

  Run run(opts_);
  run.pool_fingerprint = synth::segment_pool_fingerprint(prepared->segments);
  for (const auto& ep : opts_.workers) {
    WorkerView wv;
    wv.ep = ep;
    run.workers.push_back(std::move(wv));
  }
  run.buckets = synth::make_buckets(prepared->dsl);
  for (std::size_t b = 0; b < run.buckets.size(); ++b) {
    run.bucket_index[run.buckets[b].label] = b;
    run.committed.push_back(synth::fresh_bucket_checkpoint(run.buckets[b].label, opts.seed));
    run.owner.push_back(b % run.workers.size());
  }

  // Ship the spec with the DSL resolved (workers never classify) and the
  // coordinator-owned knobs stripped.
  api::JobSpec worker_spec = spec;
  worker_spec.pipeline.dsl_override = prepared->dsl.name;
  worker_spec.pipeline.synth.checkpoint_path.clear();
  worker_spec.pipeline.synth.resume = false;
  worker_spec.on_iteration = nullptr;
  worker_spec.on_complete = nullptr;
  run.spec_json = api::spec_to_json(worker_spec);

  RemoteExecutor exec(run, opts.threads);
  auto synthesis = synth::synthesize(prepared->segments, opts, exec);
  api::record_synthesis(std::move(*prepared), std::move(synthesis), &out);
  obs::gauge("dist.workers").set(static_cast<double>(alive_count(run)));
  obs::gauge("dist.shards_reassigned_last_job").set(static_cast<double>(run.reassigned));
  out.seconds = clock.elapsed_seconds();
  // Wall-clock of the last distributed job, for scaling gates: CI runs the
  // same job on 1 worker and N workers and feeds the two metrics snapshots
  // to `abg_report --gate dist.job_seconds_last.last=0` (N-worker must not
  // be slower).
  obs::gauge("dist.job_seconds_last").set(out.seconds);
  return out;
}

}  // namespace abg::dist
