#include "cluster/placement_index.h"

#include <algorithm>
#include <limits>

namespace dlrover {
namespace {

/// Must equal ResourceSpec::FitsIn's epsilon: BestFit evaluates the same
/// fit predicate the reference scan does, component-wise, during descent.
constexpr double kFitEps = 1e-9;

/// Slack bands for MaybeFreeable (see the header): orders of magnitude above
/// any float drift the incrementally-maintained class totals can accumulate
/// versus the exact scan-order fold, orders of magnitude below the smallest
/// meaningful request margin (fractional cores / megabytes).
constexpr double kCpuSlack = 1e-5;
constexpr double kMemSlack = 1e6;  // bytes

/// splitmix64: deterministic, well-mixed treap priorities from ids/seqs, so
/// tree shape is a pure function of the operation sequence.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

int PriorityBucket(PriorityClass p) {
  switch (p) {
    case PriorityClass::kBestEffort:
      return 0;
    case PriorityClass::kTraining:
      return 1;
    case PriorityClass::kStream:
      return 2;
    case PriorityClass::kOnline:
      return 3;
  }
  return kNumPriorityClasses - 1;
}

PlacementIndex::PlacementIndex(size_t num_nodes)
    : entries_(num_nodes), node_pods_(num_nodes) {
  for (size_t i = 0; i < num_nodes; ++i) {
    entries_[i].pri = Mix64(static_cast<uint64_t>(i));
  }
}

bool PlacementIndex::Less(int a, int b) const {
  const Entry& ea = entries_[static_cast<size_t>(a)];
  const Entry& eb = entries_[static_cast<size_t>(b)];
  if (ea.key_cpu != eb.key_cpu) return ea.key_cpu < eb.key_cpu;
  return a < b;  // entry index == node id: ties resolve to the lower id
}

void PlacementIndex::Pull(int t) {
  Entry& e = entries_[static_cast<size_t>(t)];
  e.max_mem = e.mem;
  if (e.left != kNil) {
    e.max_mem = std::max(e.max_mem, entries_[static_cast<size_t>(e.left)].max_mem);
  }
  if (e.right != kNil) {
    e.max_mem = std::max(e.max_mem, entries_[static_cast<size_t>(e.right)].max_mem);
  }
}

void PlacementIndex::Insert(int& t, int e) {
  if (t == kNil) {
    t = e;
    entries_[static_cast<size_t>(e)].left = kNil;
    entries_[static_cast<size_t>(e)].right = kNil;
    Pull(e);
    return;
  }
  Entry& et = entries_[static_cast<size_t>(t)];
  if (Less(e, t)) {
    Insert(et.left, e);
    if (entries_[static_cast<size_t>(et.left)].pri < et.pri) {
      // Rotate right: the freshly inserted (or bubbled) child takes t's spot.
      const int l = et.left;
      et.left = entries_[static_cast<size_t>(l)].right;
      entries_[static_cast<size_t>(l)].right = t;
      Pull(t);
      t = l;
    }
  } else {
    Insert(et.right, e);
    if (entries_[static_cast<size_t>(et.right)].pri < et.pri) {
      const int r = et.right;
      et.right = entries_[static_cast<size_t>(r)].left;
      entries_[static_cast<size_t>(r)].left = t;
      Pull(t);
      t = r;
    }
  }
  Pull(t);
}

int PlacementIndex::MergeChildren(int a, int b) {
  if (a == kNil) return b;
  if (b == kNil) return a;
  if (entries_[static_cast<size_t>(a)].pri < entries_[static_cast<size_t>(b)].pri) {
    entries_[static_cast<size_t>(a)].right =
        MergeChildren(entries_[static_cast<size_t>(a)].right, b);
    Pull(a);
    return a;
  }
  entries_[static_cast<size_t>(b)].left =
      MergeChildren(a, entries_[static_cast<size_t>(b)].left);
  Pull(b);
  return b;
}

void PlacementIndex::Erase(int& t, int e) {
  if (t == kNil) return;
  if (t == e) {
    Entry& et = entries_[static_cast<size_t>(t)];
    t = MergeChildren(et.left, et.right);
    et.left = kNil;
    et.right = kNil;
    return;
  }
  Entry& et = entries_[static_cast<size_t>(t)];
  if (Less(e, t)) {
    Erase(et.left, e);
  } else {
    Erase(et.right, e);
  }
  Pull(t);
}

void PlacementIndex::InsertNode(NodeId id, const ResourceSpec& available) {
  Entry& e = entries_[id];
  if (e.in_tree) return;
  e.key_cpu = available.cpu;
  e.mem = available.memory;
  e.in_tree = true;
  Insert(root_, static_cast<int>(id));
  ++tree_size_;
}

void PlacementIndex::RemoveNode(NodeId id) {
  Entry& e = entries_[id];
  if (!e.in_tree) return;
  Erase(root_, static_cast<int>(id));
  e.in_tree = false;
  --tree_size_;
}

void PlacementIndex::UpdateNode(NodeId id, const ResourceSpec& available) {
  Entry& e = entries_[id];
  if (!e.in_tree) return;
  if (e.key_cpu == available.cpu && e.mem == available.memory) return;
  Erase(root_, static_cast<int>(id));
  e.key_cpu = available.cpu;
  e.mem = available.memory;
  Insert(root_, static_cast<int>(id));
}

bool PlacementIndex::GetIndexed(NodeId id, ResourceSpec* available) const {
  const Entry& e = entries_[id];
  if (!e.in_tree) return false;
  available->cpu = e.key_cpu;
  available->memory = e.mem;
  return true;
}

int PlacementIndex::FindFit(int t, const ResourceSpec& request,
                            double above_cpu) const {
  if (t == kNil) return kNil;
  const Entry& e = entries_[static_cast<size_t>(t)];
  // Nothing in this subtree has enough memory: prune in O(1).
  if (request.memory > e.max_mem + kFitEps) return kNil;
  // The left subtree holds strictly smaller keys; it can contain a candidate
  // only if this entry's CPU already clears both CPU constraints (CPU-fit is
  // monotone in the key, and the strictly-above bound is a key lower bound).
  if (e.key_cpu > above_cpu && request.cpu <= e.key_cpu + kFitEps) {
    const int l = FindFit(e.left, request, above_cpu);
    if (l != kNil) return l;
    if (request.memory <= e.mem + kFitEps) return t;
  }
  return FindFit(e.right, request, above_cpu);
}

int PlacementIndex::BestFit(const ResourceSpec& request) const {
  const int first =
      FindFit(root_, request, -std::numeric_limits<double>::infinity());
  if (first == kNil) return -1;
  // The reference scan minimizes fl(available_cpu - request_cpu) and keeps the
  // first (lowest-id) node achieving the minimum. The leftmost fitting entry
  // has the minimal available CPU among fitting nodes — and hence the
  // minimal rounded remainder — with the lowest id inside its exact-CPU
  // group. But a *different* CPU value can round to the same remainder;
  // sweep successive fitting CPU groups while the rounded remainder stays
  // equal, keeping the overall minimum id. Normally this loop exits on its
  // first iteration (the next group's remainder is strictly larger).
  const double best_rem =
      entries_[static_cast<size_t>(first)].key_cpu - request.cpu;
  int best_id = first;
  double cursor_cpu = entries_[static_cast<size_t>(first)].key_cpu;
  for (;;) {
    const int next = FindFit(root_, request, cursor_cpu);
    if (next == kNil) break;
    const Entry& e = entries_[static_cast<size_t>(next)];
    if (e.key_cpu - request.cpu != best_rem) break;
    best_id = std::min(best_id, next);
    cursor_cpu = e.key_cpu;
  }
  return best_id;
}

void PlacementIndex::AddPod(NodeId node, PriorityClass priority,
                            const ResourceSpec& request) {
  NodePods& np = node_pods_[node];
  const size_t b = static_cast<size_t>(PriorityBucket(priority));
  np.total[b] += request;
  ++np.count[b];
}

void PlacementIndex::RemovePod(NodeId node, PriorityClass priority,
                               const ResourceSpec& request) {
  NodePods& np = node_pods_[node];
  const size_t b = static_cast<size_t>(PriorityBucket(priority));
  np.total[b] -= request;
  --np.count[b];
  // Re-anchor on empty: the incremental total may carry float dust after a
  // remove sequence ordered differently from the adds; zeroing here keeps
  // drift bounded by one occupancy cycle instead of the cluster's lifetime.
  if (np.count[b] == 0) np.total[b] = ResourceSpec{};
}

bool PlacementIndex::MaybeFreeable(NodeId node, const ResourceSpec& available,
                                   const ResourceSpec& request,
                                   PriorityClass preemptor) const {
  const int limit = PriorityBucket(preemptor);
  double cpu = available.cpu;
  double mem = available.memory;
  const NodePods& np = node_pods_[node];
  for (int b = 0; b < limit; ++b) {
    cpu += np.total[static_cast<size_t>(b)].cpu;
    mem += np.total[static_cast<size_t>(b)].memory;
  }
  return request.cpu <= cpu + kCpuSlack && request.memory <= mem + kMemSlack;
}

RunningPodIndex::RunningPodIndex() { roots_.fill(kNil); }

int RunningPodIndex::AllocEntry() {
  if (!free_.empty()) {
    const int e = free_.back();
    free_.pop_back();
    return e;
  }
  const int e = static_cast<int>(entries_.size());
  entries_.emplace_back();
  return e;
}

void RunningPodIndex::Insert(int& t, int e) {
  if (t == kNil) {
    t = e;
    return;
  }
  Entry& et = entries_[static_cast<size_t>(t)];
  if (entries_[static_cast<size_t>(e)].seq < et.seq) {
    Insert(et.left, e);
    if (entries_[static_cast<size_t>(et.left)].pri < et.pri) {
      const int l = et.left;
      et.left = entries_[static_cast<size_t>(l)].right;
      entries_[static_cast<size_t>(l)].right = t;
      t = l;
    }
  } else {
    Insert(et.right, e);
    if (entries_[static_cast<size_t>(et.right)].pri < et.pri) {
      const int r = et.right;
      et.right = entries_[static_cast<size_t>(r)].left;
      entries_[static_cast<size_t>(r)].left = t;
      t = r;
    }
  }
}

int RunningPodIndex::MergeChildren(int a, int b) {
  if (a == kNil) return b;
  if (b == kNil) return a;
  if (entries_[static_cast<size_t>(a)].pri < entries_[static_cast<size_t>(b)].pri) {
    entries_[static_cast<size_t>(a)].right =
        MergeChildren(entries_[static_cast<size_t>(a)].right, b);
    return a;
  }
  entries_[static_cast<size_t>(b)].left =
      MergeChildren(a, entries_[static_cast<size_t>(b)].left);
  return b;
}

void RunningPodIndex::Erase(int& t, uint64_t seq) {
  if (t == kNil) return;
  Entry& et = entries_[static_cast<size_t>(t)];
  if (et.seq == seq) {
    const int dead = t;
    t = MergeChildren(et.left, et.right);
    et.left = kNil;
    et.right = kNil;
    et.pod = nullptr;
    free_.push_back(dead);
    return;
  }
  if (seq < et.seq) {
    Erase(et.left, seq);
  } else {
    Erase(et.right, seq);
  }
}

void RunningPodIndex::Insert(PriorityClass priority, uint64_t creation_seq,
                             const Pod* pod) {
  const int e = AllocEntry();
  Entry& en = entries_[static_cast<size_t>(e)];
  en.seq = creation_seq;
  en.pri = Mix64(creation_seq);
  en.pod = pod;
  en.left = kNil;
  en.right = kNil;
  const size_t b = static_cast<size_t>(PriorityBucket(priority));
  Insert(roots_[b], e);
  ++sizes_[b];
}

void RunningPodIndex::Remove(PriorityClass priority, uint64_t creation_seq) {
  const size_t b = static_cast<size_t>(PriorityBucket(priority));
  const size_t before = free_.size();
  Erase(roots_[b], creation_seq);
  if (free_.size() > before) --sizes_[b];
}

size_t RunningPodIndex::Size(PriorityClass priority) const {
  return sizes_[static_cast<size_t>(PriorityBucket(priority))];
}

}  // namespace dlrover
