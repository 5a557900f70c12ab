#include "common/status.h"

#include <cstdio>

namespace dlrover {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kCancelled:
      return "CANCELLED";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kAborted:
      return "ABORTED";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  out += ": ";
  out += message_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

Status InvalidArgumentError(StatusMessage message) {
  return Status(StatusCode::kInvalidArgument, message);
}
Status NotFoundError(StatusMessage message) {
  return Status(StatusCode::kNotFound, message);
}
Status FailedPreconditionError(StatusMessage message) {
  return Status(StatusCode::kFailedPrecondition, message);
}
Status InternalError(StatusMessage message) {
  return Status(StatusCode::kInternal, message);
}
Status UnavailableError(StatusMessage message) {
  return Status(StatusCode::kUnavailable, message);
}
Status DeadlineExceededError(StatusMessage message) {
  return Status(StatusCode::kDeadlineExceeded, message);
}

namespace internal_status {

void DieBecauseNotOk(const Status& status, const char* expr) {
  std::fprintf(stderr, "DLROVER_CHECK_OK failed at %s: %s\n", expr,
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal_status
}  // namespace dlrover
