// The coordinator half of distributed refinement search. Runs one synthesis
// job through synth::synthesize() — the same Algorithm-1 driver as a local
// run — with a remote pass executor: the job's buckets are sharded over N
// abagnale_worker processes, and each pass is farmed out over HTTP:
//   1. group the live buckets by owning worker (round-robin at job start),
//   2. POST /shard/iterate to every group's worker (202 + background pass),
//   3. poll GET /shard/status until every group reports its post-pass
//      BucketCheckpoints,
//   4. commit them; the driver folds, ranks and cuts exactly as it does for
//      a local run, so the distributed winner is bit-identical to a
//      single-process one.
//
// Fault tolerance: every bucket's committed state is the checkpoint from its
// last *completed* pass. When a worker stops answering (max_rpc_failures
// consecutive RPC errors — covers kill -9, hangs, and network loss), its
// live buckets are reassigned: a surviving worker adopts the committed
// states (POST /shard/restore) and re-runs the pass. Because a pass is a
// pure function of its entry state (see synth/shard.hpp), the re-run
// reproduces exactly what the dead worker would have produced, and the
// final winner is unchanged. A worker once declared dead is never reused —
// a slow-but-alive straggler holds state the coordinator no longer trusts.
//
// The coordinator also owns everything durable and everything global: the
// pipeline front half (api::prepare; workers rebuild the segment pool from
// the spec and the coordinator cross-checks the fingerprint), the
// checkpoint file (the driver's format, so a job resumes under either
// executor), the deadline watchdog, and the final validation re-ranking.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/job.hpp"
#include "util/cancellation.hpp"
#include "util/result.hpp"

namespace abg::dist {

struct WorkerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

// Parse "host:port,host:port,..." (bare "port" means 127.0.0.1). The
// abagnale_serve --workers attach syntax.
util::Result<std::vector<WorkerEndpoint>> parse_worker_endpoints(const std::string& list);

// True when Coordinator::run accepts `spec`: a kPipeline job over trace
// *paths* only. serve::Service uses this to route each submitted job between
// the local engine and the worker fleet.
bool spec_is_distributable(const api::JobSpec& spec);

struct CoordinatorOptions {
  std::vector<WorkerEndpoint> workers;
  // Per-RPC wall-clock budget. Passes run async (202 + poll), so this bounds
  // individual requests, not search time.
  double rpc_timeout_s = 30.0;
  // Status-poll cadence while passes are in flight.
  double poll_interval_s = 0.02;
  // Consecutive RPC failures before a worker is declared dead.
  int max_rpc_failures = 3;
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions opts);

  // Run one job distributed, with api::Engine's result contract: errors
  // (ineligible spec, all workers lost, corrupt checkpoint) come back in
  // JobResult::status, interrupts as partial results. Eligible jobs are
  // kPipeline over trace *paths* — pre-segmented input, in-memory traces,
  // and custom DSL objects cannot be shipped to a worker by value and are
  // rejected with kInvalidArgument.
  api::JobResult run(const api::JobSpec& spec, const util::CancellationToken* cancel = nullptr);

  const CoordinatorOptions& options() const { return opts_; }

 private:
  CoordinatorOptions opts_;
};

}  // namespace abg::dist
