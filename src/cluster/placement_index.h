#ifndef DLROVER_CLUSTER_PLACEMENT_INDEX_H_
#define DLROVER_CLUSTER_PLACEMENT_INDEX_H_

#include <array>
#include <cstdint>
#include <vector>

#include "cluster/pod.h"
#include "cluster/resources.h"

namespace dlrover {

/// Maps a PriorityClass to a dense bucket index [0, kNumPriorityClasses).
/// Bucket order follows priority order, so iterating buckets ascending visits
/// pods lowest-priority-first — the eviction order of the preemption path.
inline constexpr int kNumPriorityClasses = 4;
int PriorityBucket(PriorityClass p);

/// Ordered free-capacity index over the schedulable nodes of a cluster.
///
/// The structure answers the scheduler's best-fit query — "schedulable node
/// with the least remaining CPU that still fits the request" — in O(log n)
/// instead of the O(n) scan the linear placement arm pays per attempt,
/// and keeps per-node, priority-bucketed aggregates that let the preemption
/// path reject hopeless nodes in O(1) instead of sorting every pod on every
/// node per victim search.
///
/// Three parts:
///
///  1. A treap over schedulable nodes keyed by (available CPU, node id), each
///     entry augmented with the maximum available memory in its subtree.
///     A best-fit query descends for the leftmost entry that fits both CPU
///     and memory; pruning on the memory augmentation keeps the walk
///     logarithmic. Treap priorities are a fixed hash of the node id, so the
///     tree shape is a pure function of the operation sequence — results
///     are deterministic and independent of execution lanes.
///
///  2. Per-node, per-priority-class pod aggregates (count + summed request)
///     maintained on place/release. `MaybeFreeable` folds the class totals
///     below a preemptor's priority into a conservative O(1) feasibility
///     check (see the slack note below).
///
///  3. A slab for all of the above: entries live in vectors sized to the
///     node count at construction, so steady-state updates and queries never
///     touch the heap.
///
/// Tie-breaking is pinned to the reference scan's rule (Cluster's
/// validate_placement_index oracle): the scan minimizes
/// fl(available_cpu - request_cpu) with a strict `<`, so among equal minimal
/// values the lowest node id (first encountered) wins. The treap's
/// (cpu, id) key order reproduces that for exact CPU ties, and BestFit runs
/// an explicit sweep over any further key groups whose *rounded* remainder
/// collapses to the same double — a pathological float case, but the sweep
/// makes the query's answer equal to the scan's on every input, not just
/// typical ones.
class PlacementIndex {
 public:
  explicit PlacementIndex(size_t num_nodes);

  /// Inserts a (schedulable) node with its current available capacity.
  void InsertNode(NodeId id, const ResourceSpec& available);
  /// Removes a node (it was cordoned). No-op if absent.
  void RemoveNode(NodeId id);
  /// Re-keys a node after its available capacity changed.
  void UpdateNode(NodeId id, const ResourceSpec& available);
  /// Reads back the indexed capacity of a node (validation support).
  /// Returns false when the node is not in the index.
  bool GetIndexed(NodeId id, ResourceSpec* available) const;
  size_t NumIndexedNodes() const { return tree_size_; }

  /// Best-fit query: the node the reference linear scan would choose for this
  /// request, or -1 when no schedulable node fits. O(log n).
  int BestFit(const ResourceSpec& request) const;

  /// Registers a pod placed on `node` (bumps the node's class aggregate).
  void AddPod(NodeId node, PriorityClass priority, const ResourceSpec& request);
  /// Unregisters a pod released from `node`.
  void RemovePod(NodeId node, PriorityClass priority,
                 const ResourceSpec& request);

  /// O(1) conservative feasibility check for the preemption path: can
  /// evicting every pod of priority strictly below `preemptor` on this node
  /// possibly free room for `request` on top of `available`? A false return
  /// is definitive (the node cannot help even under worst-case float
  /// rounding, so the victim search skips it without touching its pods); a
  /// true return means "run the exact per-pod fold". The slack absorbs the
  /// rounding difference between the incrementally-maintained class totals
  /// and the scan-order summation the exact fold performs, so the *decision*
  /// always comes from arithmetic identical to the reference scan.
  bool MaybeFreeable(NodeId node, const ResourceSpec& available,
                     const ResourceSpec& request, PriorityClass preemptor) const;

  /// Pods registered on `node` in bucket `cls` (validation support).
  uint32_t PodCount(NodeId node, int cls) const {
    return node_pods_[node].count[static_cast<size_t>(cls)];
  }
  ResourceSpec PodTotal(NodeId node, int cls) const {
    return node_pods_[node].total[static_cast<size_t>(cls)];
  }

 private:
  static constexpr int kNil = -1;

  struct Entry {
    double key_cpu = 0.0;   // available CPU (the BST key, with node id)
    double mem = 0.0;       // available memory
    double max_mem = 0.0;   // subtree max of `mem`
    uint64_t pri = 0;       // fixed treap priority (min-heap)
    int left = kNil;
    int right = kNil;
    bool in_tree = false;
  };

  struct NodePods {
    std::array<ResourceSpec, kNumPriorityClasses> total;
    std::array<uint32_t, kNumPriorityClasses> count{};
  };

  bool Less(int a, int b) const;
  void Pull(int t);
  void Insert(int& t, int e);
  void Erase(int& t, int e);
  int MergeChildren(int a, int b);
  /// Leftmost fitting entry with key strictly above (`above_cpu`, any id),
  /// or any key when `above_cpu` is -inf.
  int FindFit(int t, const ResourceSpec& request, double above_cpu) const;

  std::vector<Entry> entries_;
  std::vector<NodePods> node_pods_;
  int root_ = kNil;
  size_t tree_size_ = 0;
};

/// Creation-ordered index of *running* pods, bucketed by priority class.
///
/// The failure injector's sweep draws its per-pod hazards in pod creation
/// order, and the harness and benches pick running pods by the same order.
/// This index keeps only the currently-running pods of each class, ordered
/// by creation sequence, so a sweep enumerates exactly the pods it draws for
/// in O(running pods of the class).
///
/// Implementation: one treap per class keyed by the pod's creation sequence
/// (unique, monotone), entries recycled through a free list so steady-state
/// insert/erase never allocates once the high-water mark is reached.
class RunningPodIndex {
 public:
  RunningPodIndex();

  void Insert(PriorityClass priority, uint64_t creation_seq, const Pod* pod);
  void Remove(PriorityClass priority, uint64_t creation_seq);
  size_t Size(PriorityClass priority) const;

  /// Visits the running pods of `priority` in creation order.
  template <typename Fn>
  void Visit(PriorityClass priority, Fn&& fn) const {
    VisitSubtree(roots_[static_cast<size_t>(PriorityBucket(priority))], fn);
  }

 private:
  static constexpr int kNil = -1;

  struct Entry {
    uint64_t seq = 0;
    uint64_t pri = 0;
    const Pod* pod = nullptr;
    int left = kNil;
    int right = kNil;
  };

  template <typename Fn>
  void VisitSubtree(int t, Fn&& fn) const {
    if (t == kNil) return;
    VisitSubtree(entries_[static_cast<size_t>(t)].left, fn);
    fn(*entries_[static_cast<size_t>(t)].pod);
    VisitSubtree(entries_[static_cast<size_t>(t)].right, fn);
  }

  int AllocEntry();
  void Insert(int& t, int e);
  void Erase(int& t, uint64_t seq);
  int MergeChildren(int a, int b);

  std::vector<Entry> entries_;
  std::vector<int> free_;
  std::array<int, kNumPriorityClasses> roots_;
  std::array<size_t, kNumPriorityClasses> sizes_{};
};

}  // namespace dlrover

#endif  // DLROVER_CLUSTER_PLACEMENT_INDEX_H_
