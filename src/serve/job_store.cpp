#include "serve/job_store.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/durable_io.hpp"
#include "util/log.hpp"

namespace abg::serve {

namespace {

util::Status io_error(const std::string& what) {
  return util::Status(util::StatusCode::kIoError, what + ": " + std::strerror(errno));
}

util::Status ensure_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return util::Status::ok();
  return io_error("mkdir " + dir);
}

std::vector<std::string> split_tabs(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t tab = s.find('\t', pos);
    if (tab == std::string::npos) {
      out.push_back(s.substr(pos));
      return out;
    }
    out.push_back(s.substr(pos, tab - pos));
    pos = tab + 1;
  }
}

// Error messages ride inside a tab-separated single-line record; fold the
// two separators they could contain.
std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == '\t' || c == '\n') c = ' ';
  }
  return s;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

const char* job_phase_name(JobPhase p) {
  switch (p) {
    case JobPhase::kQueued: return "queued";
    case JobPhase::kRunning: return "running";
    case JobPhase::kSuspended: return "suspended";
    case JobPhase::kDone: return "done";
    case JobPhase::kFailed: return "failed";
    case JobPhase::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool job_phase_terminal(JobPhase p) {
  return p == JobPhase::kDone || p == JobPhase::kFailed || p == JobPhase::kCancelled;
}

util::Status JobStore::open(const std::string& state_dir) {
  std::lock_guard lk(mu_);
  state_dir_ = state_dir;
  if (auto st = ensure_dir(state_dir_); !st.is_ok()) return st;
  if (auto st = ensure_dir(state_dir_ + "/jobs"); !st.is_ok()) return st;

  order_.clear();
  jobs_.clear();
  std::vector<std::string> records;
  if (auto st = wal_.open(state_dir_ + "/wal.log", &records); !st.is_ok()) return st;
  for (const auto& payload : records) {
    // Replay is forgiving: a record that no longer parses (version skew) is
    // skipped with a warning rather than poisoning the whole store.
    const auto fields = split_tabs(payload);
    if (fields.size() < 2) {
      ABG_WARN("wal %s: skipping malformed record '%s'", wal_.path().c_str(),
               payload.c_str());
      continue;
    }
    const std::string& kind = fields[0];
    const std::string& id = fields[1];
    auto it = jobs_.find(id);
    if (kind == "submit") {
      if (it == jobs_.end()) {
        JobRecord rec;
        rec.id = id;
        rec.client = fields.size() > 2 ? fields[2] : "";
        jobs_.emplace(id, std::move(rec));
        order_.push_back(id);
      }
      continue;
    }
    if (it == jobs_.end()) {
      ABG_WARN("wal %s: record '%s' for unknown job %s", wal_.path().c_str(),
               kind.c_str(), id.c_str());
      continue;
    }
    if (kind == "running") {
      it->second.phase = JobPhase::kRunning;
    } else if (kind == "progress") {
      if (fields.size() > 2) it->second.iterations = std::atoi(fields[2].c_str());
    } else if (kind == "suspended") {
      it->second.phase = JobPhase::kSuspended;
    } else if (kind == "done") {
      it->second.phase = JobPhase::kDone;
    } else if (kind == "failed") {
      it->second.phase = JobPhase::kFailed;
      it->second.error = fields.size() > 2 ? fields[2] : "";
    } else if (kind == "cancelled") {
      it->second.phase = JobPhase::kCancelled;
    } else {
      ABG_WARN("wal %s: skipping unknown record kind '%s'", wal_.path().c_str(),
               kind.c_str());
    }
  }
  return compact_locked();
}

void JobStore::close() {
  std::lock_guard lk(mu_);
  wal_.close();
}

std::vector<JobRecord> JobStore::records() const {
  std::lock_guard lk(mu_);
  std::vector<JobRecord> out;
  out.reserve(order_.size());
  for (const auto& id : order_) out.push_back(jobs_.at(id));
  return out;
}

bool JobStore::lookup(const std::string& id, JobRecord* out) const {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  *out = it->second;
  return true;
}

util::Status JobStore::record_submit(const std::string& id, const std::string& client,
                                     const std::string& spec_json) {
  std::lock_guard lk(mu_);
  if (jobs_.count(id)) {
    return util::Status(util::StatusCode::kInvalidArgument, "duplicate job id " + id);
  }
  // Spec first, durably: a submit record must never point at a missing or
  // torn spec after a crash.
  if (auto st = util::atomic_write_file(spec_path(id), spec_json, /*durable=*/true);
      !st.is_ok()) {
    return st.with_context("persisting spec for " + id);
  }
  if (auto st = wal_.append("submit\t" + id + "\t" + sanitize(client)); !st.is_ok()) {
    return st;
  }
  JobRecord rec;
  rec.id = id;
  rec.client = client;
  jobs_.emplace(id, std::move(rec));
  order_.push_back(id);
  return util::Status::ok();
}

util::Status JobStore::record_running(const std::string& id) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return util::Status(util::StatusCode::kInvalidArgument, "unknown job " + id);
  }
  if (auto st = wal_.append("running\t" + id); !st.is_ok()) return st;
  it->second.phase = JobPhase::kRunning;
  return util::Status::ok();
}

util::Status JobStore::record_progress(const std::string& id, int iterations) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return util::Status(util::StatusCode::kInvalidArgument, "unknown job " + id);
  }
  // Advisory: not fsync'd. Recovery decides resumability from the checkpoint
  // file itself, never from these (the checkpoint for iteration k is written
  // after the iteration-k progress callback fires, so a progress record can
  // legitimately be ahead of the durable checkpoint).
  if (auto st = wal_.append("progress\t" + id + "\t" + std::to_string(iterations),
                            /*durable=*/false);
      !st.is_ok()) {
    return st;
  }
  it->second.iterations = iterations;
  return util::Status::ok();
}

util::Status JobStore::record_suspended(const std::string& id) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return util::Status(util::StatusCode::kInvalidArgument, "unknown job " + id);
  }
  if (job_phase_terminal(it->second.phase)) {
    return util::Status(util::StatusCode::kInvalidArgument,
                        "job " + id + " already terminal");
  }
  if (auto st = wal_.append("suspended\t" + id); !st.is_ok()) return st;
  it->second.phase = JobPhase::kSuspended;
  return util::Status::ok();
}

util::Status JobStore::record_terminal(const std::string& id, JobPhase phase,
                                       const std::string& error,
                                       const std::string& result_json) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return util::Status(util::StatusCode::kInvalidArgument, "unknown job " + id);
  }
  if (!job_phase_terminal(phase)) {
    return util::Status(util::StatusCode::kInvalidArgument,
                        std::string("phase ") + job_phase_name(phase) + " is not terminal");
  }
  if (job_phase_terminal(it->second.phase)) {
    return util::Status(util::StatusCode::kInvalidArgument,
                        "job " + id + " already terminal");
  }
  if (!result_json.empty()) {
    // Result before record, durably — "done" in the WAL guarantees the
    // result file is complete on disk.
    if (auto st = util::atomic_write_file(result_path(id), result_json, /*durable=*/true);
        !st.is_ok()) {
      return st.with_context("persisting result for " + id);
    }
  }
  std::string payload = std::string(job_phase_name(phase)) + "\t" + id;
  if (phase == JobPhase::kFailed) {
    payload += '\t';
    payload += sanitize(error);
  }
  if (auto st = wal_.append(payload); !st.is_ok()) return st;
  it->second.phase = phase;
  it->second.error = phase == JobPhase::kFailed ? error : "";
  return util::Status::ok();
}

std::string JobStore::spec_path(const std::string& id) const {
  return state_dir_ + "/jobs/" + id + ".spec.json";
}

std::string JobStore::result_path(const std::string& id) const {
  return state_dir_ + "/jobs/" + id + ".result.json";
}

std::string JobStore::checkpoint_path(const std::string& id) const {
  return state_dir_ + "/jobs/" + id + ".ckpt";
}

std::string JobStore::trace_path(const std::string& id) const {
  return state_dir_ + "/jobs/" + id + ".trace.csv";
}

std::uint64_t JobStore::next_job_number() const {
  std::lock_guard lk(mu_);
  std::uint64_t next = 1;
  for (const auto& id : order_) {
    if (id.rfind("j-", 0) == 0) {
      const std::uint64_t n = std::strtoull(id.c_str() + 2, nullptr, 10);
      next = std::max(next, n + 1);
    }
  }
  return next;
}

util::Status JobStore::compact() {
  std::lock_guard lk(mu_);
  return compact_locked();
}

util::Status JobStore::compact_locked() {
  // Minimal equivalent log: submit for everyone, then one record restoring
  // each job's folded phase (and latest advisory iteration count for live
  // jobs, so a restarted dashboard is not blind until the next iteration).
  std::string out;
  for (const auto& id : order_) {
    const JobRecord& rec = jobs_.at(id);
    auto add = [&out](const std::string& payload) {
      char cs[17];
      std::snprintf(cs, sizeof cs, "%016llx",
                    static_cast<unsigned long long>(wal_checksum(payload)));
      out += std::string(cs) + " " + payload + "\n";
    };
    add("submit\t" + id + "\t" + sanitize(rec.client));
    switch (rec.phase) {
      case JobPhase::kQueued:
        break;
      case JobPhase::kRunning:
        add("running\t" + id);
        break;
      case JobPhase::kSuspended:
        add("suspended\t" + id);
        break;
      case JobPhase::kDone:
        add("done\t" + id);
        break;
      case JobPhase::kFailed:
        add("failed\t" + id + "\t" + sanitize(rec.error));
        break;
      case JobPhase::kCancelled:
        add("cancelled\t" + id);
        break;
    }
    if (!job_phase_terminal(rec.phase) && rec.iterations > 0) {
      add("progress\t" + id + "\t" + std::to_string(rec.iterations));
    }
  }
  const std::string path = wal_path();
  wal_.close();
  if (auto st = util::atomic_write_file(path, out, /*durable=*/true); !st.is_ok()) {
    return st.with_context("compacting wal");
  }
  std::vector<std::string> reread;
  return wal_.open(path, &reread);
}

// file_exists is used by the service (via checkpoint_path) — keep the helper
// visible to it without a second stat wrapper.
bool job_checkpoint_exists(const JobStore& store, const std::string& id) {
  return file_exists(store.checkpoint_path(id));
}

}  // namespace abg::serve
