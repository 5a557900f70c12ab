#include "elastic/chaos.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"

namespace dlrover {

ChaosInjector::ChaosInjector(std::vector<ChaosFault> schedule)
    : schedule_(std::move(schedule)) {
  std::sort(schedule_.begin(), schedule_.end(),
            [](const ChaosFault& a, const ChaosFault& b) {
              if (a.at_batches != b.at_batches) {
                return a.at_batches < b.at_batches;
              }
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  for (const ChaosFault& fault : schedule_) {
    triggers_[static_cast<int>(fault.kind)].push_back(fault.at_batches);
  }
}

ChaosInjector ChaosInjector::FromSeed(const ChaosScheduleOptions& options) {
  Rng rng(options.seed ^ 0xc8a05ull);
  const double span = static_cast<double>(options.total_batches);
  std::vector<ChaosFault> schedule;
  auto draw = [&](int count, ChaosFaultKind kind) {
    for (int i = 0; i < count; ++i) {
      const double u = rng.Uniform(kWindowBegin, kWindowEnd);
      ChaosFault fault;
      fault.at_batches = static_cast<uint64_t>(u * span);
      fault.kind = kind;
      schedule.push_back(fault);
    }
  };
  for (const ChaosFaultKind kind :
       {ChaosFaultKind::kCrashBeforePush, ChaosFaultKind::kCrashAfterPush,
        ChaosFaultKind::kStallWorker, ChaosFaultKind::kLoseShardReport,
        ChaosFaultKind::kFailCheckpointWrite, ChaosFaultKind::kPsFailure}) {
    draw(kFaultsPerKind, kind);
  }
  // Drawn last (and default 0): the other faults keep their triggers.
  draw(options.torn_checkpoint_writes, ChaosFaultKind::kTornCheckpointWrite);
  return ChaosInjector(std::move(schedule));
}

bool ChaosInjector::Take(ChaosFaultKind kind, uint64_t committed_batches) {
  const int k = static_cast<int>(kind);
  std::lock_guard<std::mutex> lock(mu_);
  if (cursor_[k] >= triggers_[k].size()) return false;
  const uint64_t trigger = triggers_[k][cursor_[k]];
  if (trigger > committed_batches) return false;
  ++cursor_[k];
  ChaosFiredRecord record;
  record.fault.at_batches = trigger;
  record.fault.kind = kind;
  record.fired_at_batches = committed_batches;
  fired_.push_back(record);
  return true;
}

bool ChaosInjector::Due(ChaosFaultKind kind, uint64_t committed_batches) const {
  const int k = static_cast<int>(kind);
  std::lock_guard<std::mutex> lock(mu_);
  return cursor_[k] < triggers_[k].size() &&
         triggers_[k][cursor_[k]] <= committed_batches;
}

std::vector<ChaosFiredRecord> ChaosInjector::fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

size_t ChaosInjector::remaining() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t left = 0;
  for (int k = 0; k < kNumKinds; ++k) left += triggers_[k].size() - cursor_[k];
  return left;
}

}  // namespace dlrover
