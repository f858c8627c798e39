#include "util/status.hpp"

namespace abg::util {

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kUnknown: return "unknown";
    case StatusCode::kParseError: return "parse-error";
    case StatusCode::kInvalidTrace: return "invalid-trace";
    case StatusCode::kTimeout: return "timeout";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kIoError: return "io-error";
    case StatusCode::kNumericError: return "numeric-error";
    case StatusCode::kInvalidArgument: return "invalid-argument";
    case StatusCode::kResourceExhausted: return "resource-exhausted";
  }
  return "unknown";
}

int exit_code(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kUnknown: return 1;
    case StatusCode::kParseError: return 3;
    case StatusCode::kInvalidTrace: return 4;
    case StatusCode::kTimeout: return 5;
    case StatusCode::kCancelled: return 6;
    case StatusCode::kIoError: return 7;
    case StatusCode::kNumericError: return 8;
    case StatusCode::kInvalidArgument: return 9;
    case StatusCode::kResourceExhausted: return 10;
  }
  return 1;
}

std::string Status::to_string() const {
  if (is_ok()) return "ok";
  std::string out = status_code_name(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace abg::util
