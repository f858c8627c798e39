// Umbrella header: the complete public surface of abagnale, the
// congestion-control reverse-engineering system (IMC'24). One include gives
// an embedding application everything it needs:
//
//   #include "abg/abagnale.hpp"
//
//   abg::api::Engine engine({.threads = 8});
//   auto handle = engine.submit(abg::api::JobSpec()
//                                   .with_name("reno")
//                                   .add_trace_path("traces/reno_0.csv")
//                                   .with_timeout(120.0));
//   if (!handle.ok()) { /* kInvalidArgument with the first bad field */ }
//   const abg::api::JobResult& r = handle->wait();
//
// Layering (stable to depend on, top to bottom):
//   abg::api    — batch Engine, JobSpec/JobResult, manifests, api::prepare
//   abg::core   — pipeline options/results, classification → sub-DSL pick
//   abg::synth  — refinement loop, sketch enumeration, mister880 baseline
//   abg::dsl / abg::distance / abg::trace / abg::cca / abg::net — domain types
//   abg::util / abg::obs — status/result, threading, metrics, trace events
#pragma once

// Public facade (start here).
#include "api/engine.hpp"
#include "api/job.hpp"
#include "api/manifest.hpp"

// Pipeline types and search internals, for callers that need finer-grained
// control than a JobSpec exposes.
#include "core/abagnale.hpp"
#include "synth/mister880.hpp"
#include "synth/refinement.hpp"

// Domain vocabulary.
#include "classify/classifier.hpp"
#include "distance/distance.hpp"
#include "dsl/dsl.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

// Infrastructure referenced by the facade's signatures.
#include "obs/registry.hpp"
#include "util/cancellation.hpp"
#include "util/result.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"
