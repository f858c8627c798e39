// Structured error reporting for the pipeline's fallible boundaries (trace
// ingestion, checkpoint I/O, long-running synthesis). A Status is a cheap
// (code, message) pair; Result<T> (result.hpp) carries either a value or a
// non-ok Status. Every failure path returns one of these instead of a bare
// std::optional, so the CLI and run scripts can tell *which class* of thing
// went wrong (and exit with a distinct code per class).
#pragma once

#include <string>
#include <string_view>

namespace abg::util {

// Error taxonomy. Keep in sync with status_code_name() and exit_code().
enum class StatusCode {
  kOk = 0,
  kUnknown,          // unclassified failure
  kParseError,       // malformed text: CSV header, numeric field, handler expr
  kInvalidTrace,     // well-formed but semantically bad trace data
  kTimeout,          // deadline expired (cooperative preemption)
  kCancelled,        // explicit cancellation (token, fault injector)
  kIoError,          // file open/read/write/rename failure
  kNumericError,     // non-finite value where a finite one is required
  kInvalidArgument,  // caller-supplied options/spec rejected by validation
  kResourceExhausted,  // a memory budget ran out (sketch enumeration)
};

// Stable short name, e.g. "parse-error".
const char* status_code_name(StatusCode code);

// Distinct process exit code per class, for the CLI and run_all.sh:
// ok=0, unknown=1 (2 is reserved for usage errors), parse-error=3,
// invalid-trace=4, timeout=5, cancelled=6, io-error=7, numeric-error=8,
// invalid-argument=9, resource-exhausted=10.
int exit_code(StatusCode code);

class Status {
 public:
  Status() = default;  // ok
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Context chaining: `st.with_context("loading x.csv")` reads
  // "loading x.csv: <original message>". Code is preserved.
  Status with_context(std::string_view context) const {
    if (is_ok()) return *this;
    return Status(code_, std::string(context) + ": " + message_);
  }

  // "parse-error: loading x.csv: row 7: bad field 'nan'".
  std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

}  // namespace abg::util
