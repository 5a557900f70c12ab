#ifndef DLROVER_COMMON_STATUS_H_
#define DLROVER_COMMON_STATUS_H_

#include <cassert>
#include <cstdlib>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace dlrover {

/// Canonical error codes, modeled after absl::StatusCode. The project is
/// exception-free: every fallible operation returns a Status or StatusOr<T>.
enum class StatusCode : int {
  kOk = 0,
  kCancelled = 1,
  kInvalidArgument = 3,
  kDeadlineExceeded = 4,
  kNotFound = 5,
  kAlreadyExists = 6,
  kResourceExhausted = 8,
  kFailedPrecondition = 9,
  kAborted = 10,
  kOutOfRange = 11,
  kUnimplemented = 12,
  kInternal = 13,
  kUnavailable = 14,
};

/// Returns a stable human-readable name for `code` ("OK", "NOT_FOUND", ...).
std::string_view StatusCodeName(StatusCode code);

/// The message of a Status: text with static storage duration, in practice
/// a string literal. The constructor is consteval, so only a constant
/// converts and no message can point into a buffer that dies first.
class StatusMessage {
 public:
  consteval StatusMessage(const char* text)  // NOLINT: implicit by design
      : text_(text) {}
  constexpr std::string_view text() const { return text_; }

 private:
  std::string_view text_;
};

/// A lightweight success-or-error value: a code plus a static message, so
/// making, copying or comparing a Status never allocates, OK or not (a
/// rejected duplicate report on a hot path costs no heap traffic).
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with `code` and `message`. A kOk code with a
  /// non-empty message is normalized to a plain OK status.
  Status(StatusCode code, StatusMessage message)
      : code_(code),
        message_(code == StatusCode::kOk ? std::string_view()
                                         : message.text()) {}

  static Status OK() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  std::string_view message() const { return message_; }

  /// "OK" or "CODE_NAME: message".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string_view message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Convenience constructors for common error categories.
Status InvalidArgumentError(StatusMessage message);
Status NotFoundError(StatusMessage message);
Status FailedPreconditionError(StatusMessage message);
Status InternalError(StatusMessage message);
Status UnavailableError(StatusMessage message);
Status DeadlineExceededError(StatusMessage message);

namespace internal_status {
[[noreturn]] void DieBecauseNotOk(const Status& status, const char* expr);
}  // namespace internal_status

/// A value-or-error union: holds T when the operation succeeded, a non-OK
/// Status otherwise. Accessing the value of a non-OK StatusOr aborts.
template <typename T>
class StatusOr {
 public:
  /// Constructs from an error status. `status` must not be OK.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT: implicit by design
    assert(!status_.ok() && "StatusOr constructed from OK status without value");
    if (status_.ok()) {
      status_ = InternalError("StatusOr constructed from OK status without value");
    }
  }

  /// Constructs from a value; the resulting StatusOr is OK.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Returns the contained value. Requires ok().
  const T& value() const& {
    if (!ok()) internal_status::DieBecauseNotOk(status_, "StatusOr::value");
    return *value_;
  }
  T& value() & {
    if (!ok()) internal_status::DieBecauseNotOk(status_, "StatusOr::value");
    return *value_;
  }
  T&& value() && {
    if (!ok()) internal_status::DieBecauseNotOk(status_, "StatusOr::value");
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value if OK, otherwise `fallback`.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if not OK.
#define DLROVER_RETURN_IF_ERROR(expr)                  \
  do {                                                 \
    ::dlrover::Status dlrover_status_tmp_ = (expr);    \
    if (!dlrover_status_tmp_.ok()) return dlrover_status_tmp_; \
  } while (false)

/// Aborts the process with a diagnostic if `expr` is not OK. For use at
/// call sites where failure indicates a programming error.
#define DLROVER_CHECK_OK(expr)                                              \
  do {                                                                      \
    ::dlrover::Status dlrover_status_tmp_ = (expr);                         \
    if (!dlrover_status_tmp_.ok())                                          \
      ::dlrover::internal_status::DieBecauseNotOk(dlrover_status_tmp_, #expr); \
  } while (false)

}  // namespace dlrover

#endif  // DLROVER_COMMON_STATUS_H_
