#include "cluster/commit_log.h"

#include <algorithm>
#include <limits>

namespace dlrover {

void FleetLedger::Fold(const std::vector<ClusterCommitLog*>& logs) {
  cursors_.assign(logs.size(), 0);  // capacity persists across folds
  // K-way merge by (time, seq, shard). Each log is already sorted by
  // (time, seq) — simulated time is monotone within a shard and seq is the
  // append counter — so advancing the minimal cursor visits the canonical
  // order without any sorting or copying.
  for (;;) {
    size_t best = logs.size();
    for (size_t i = 0; i < logs.size(); ++i) {
      if (logs[i] == nullptr) continue;
      const auto& entries = logs[i]->entries();
      if (cursors_[i] >= entries.size()) continue;
      if (best == logs.size()) {
        best = i;
        continue;
      }
      const ClusterCommitLog::Entry& a = entries[cursors_[i]];
      const ClusterCommitLog::Entry& b = logs[best]->entries()[cursors_[best]];
      // Shard index breaks ties last, and i > best here, so strict-less
      // comparison on (time, seq) is all that is needed.
      if (a.time < b.time || (a.time == b.time && a.seq < b.seq)) best = i;
    }
    if (best == logs.size()) break;
    const ClusterCommitLog::Entry& e = logs[best]->entries()[cursors_[best]];
    ++cursors_[best];
    ++entries_folded_;
    switch (e.kind) {
      case ClusterCommitLog::Kind::kCapacity:
        totals_.capacity += e.delta;
        break;
      case ClusterCommitLog::Kind::kAllocated:
        totals_.allocated += e.delta;
        peak_allocated_cpu_ = std::max(peak_allocated_cpu_,
                                       totals_.allocated.cpu);
        break;
      case ClusterCommitLog::Kind::kUsage:
        totals_.usage += e.delta;
        break;
      case ClusterCommitLog::Kind::kCordoned:
        totals_.cordoned += e.delta;
        break;
    }
  }
  for (ClusterCommitLog* log : logs) {
    if (log != nullptr) log->Clear();
  }
}

}  // namespace dlrover
