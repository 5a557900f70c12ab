// Unit and fuzz coverage for the PlacementIndex / RunningPodIndex pair: the
// O(log n) structures must answer exactly what the plain linear scans
// answer — same node, same tie-break, same float rounding — under arbitrary
// insert/remove/update interleavings, and the preemption precheck must never
// reject a node the exact fold could use.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "cluster/placement_index.h"
#include "common/rng.h"

namespace dlrover {
namespace {

/// Mirror of the Cluster::ScanBestFit reference scan over a plain node table.
struct FakeNode {
  ResourceSpec available;
  bool schedulable = false;
};

int BruteForceBestFit(const std::vector<FakeNode>& nodes,
                      const ResourceSpec& request) {
  int best = -1;
  double best_left = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].schedulable) continue;
    if (!request.FitsIn(nodes[i].available)) continue;
    const double left = nodes[i].available.cpu - request.cpu;
    if (left < best_left) {
      best_left = left;
      best = static_cast<int>(i);
    }
  }
  return best;
}

TEST(PlacementIndexTest, EmptyIndexHasNoFit) {
  PlacementIndex index(8);
  EXPECT_EQ(index.BestFit({1.0, GiB(1)}), -1);
  EXPECT_EQ(index.NumIndexedNodes(), 0u);
}

TEST(PlacementIndexTest, TieBreakPicksLowestNodeId) {
  // Homogeneous nodes: every remaining capacity is identical, so the
  // scan keeps the first (lowest-id) node. Insert out of id order to make
  // sure the answer comes from the key order, not insertion order.
  PlacementIndex index(6);
  for (NodeId id : {4u, 1u, 5u, 0u, 3u, 2u}) {
    index.InsertNode(id, {16.0, GiB(64)});
  }
  EXPECT_EQ(index.BestFit({4.0, GiB(8)}), 0);
  index.RemoveNode(0);
  EXPECT_EQ(index.BestFit({4.0, GiB(8)}), 1);
  // A tighter node wins over a lower id.
  index.UpdateNode(5, {4.5, GiB(64)});
  EXPECT_EQ(index.BestFit({4.0, GiB(8)}), 5);
}

TEST(PlacementIndexTest, MemoryInfeasibleNodesAreSkipped) {
  PlacementIndex index(3);
  index.InsertNode(0, {8.0, GiB(2)});    // tightest CPU but not enough memory
  index.InsertNode(1, {12.0, GiB(64)});  // feasible
  index.InsertNode(2, {10.0, GiB(1)});   // second-tightest, memory-infeasible
  EXPECT_EQ(index.BestFit({8.0, GiB(8)}), 1);
  // Memory-only infeasibility across the board.
  EXPECT_EQ(index.BestFit({1.0, GiB(100)}), -1);
}

TEST(PlacementIndexTest, FitEpsilonMatchesLegacyPredicate) {
  // The fit predicate must be FitsIn verbatim: a request that exceeds the
  // available CPU by less than 1e-9 still fits, by more does not.
  PlacementIndex index(1);
  index.InsertNode(0, {8.0, GiB(8)});
  EXPECT_EQ(index.BestFit({8.0 + 0.5e-9, GiB(1)}), 0);
  EXPECT_EQ(index.BestFit({8.0 + 1.0e-8, GiB(1)}), -1);
}

TEST(PlacementIndexTest, FuzzBestFitMatchesBruteForce) {
  // Thousands of random mutations (insert / remove / re-key) interleaved
  // with best-fit queries over a mix of request shapes; every query must
  // agree with the scan replica, including "no fit".
  Rng rng(20240808);
  constexpr size_t kNodes = 64;
  PlacementIndex index(kNodes);
  std::vector<FakeNode> mirror(kNodes);
  int hits = 0;
  int misses = 0;
  for (int step = 0; step < 20000; ++step) {
    const double dice = rng.Uniform();
    const NodeId id = static_cast<NodeId>(rng.UniformInt(kNodes));
    if (dice < 0.25) {
      if (!mirror[id].schedulable) {
        // Quantize capacities so distinct nodes collide on the same values
        // often — the tie-break paths get real exercise.
        const ResourceSpec avail{rng.UniformInt(0, 32) * 0.5,
                                 GiB(static_cast<double>(rng.UniformInt(0, 64)))};
        mirror[id] = {avail, true};
        index.InsertNode(id, avail);
      }
    } else if (dice < 0.40) {
      if (mirror[id].schedulable) {
        mirror[id].schedulable = false;
        index.RemoveNode(id);
      }
    } else if (dice < 0.60) {
      if (mirror[id].schedulable) {
        const ResourceSpec avail{rng.UniformInt(0, 32) * 0.5,
                                 GiB(static_cast<double>(rng.UniformInt(0, 64)))};
        mirror[id].available = avail;
        index.UpdateNode(id, avail);
      }
    } else {
      const ResourceSpec request{rng.UniformInt(0, 40) * 0.5,
                                 GiB(static_cast<double>(rng.UniformInt(0, 80)))};
      const int want = BruteForceBestFit(mirror, request);
      ASSERT_EQ(index.BestFit(request), want)
          << "step " << step << " request " << request.ToString();
      (want >= 0 ? hits : misses) += 1;
    }
  }
  // The script must have exercised both outcomes to mean anything.
  EXPECT_GT(hits, 1000);
  EXPECT_GT(misses, 100);
}

TEST(PlacementIndexTest, FuzzMaybeFreeableIsConservative) {
  // MaybeFreeable == false must imply the exact fold cannot free
  // room: evicting *every* strictly-lower-priority pod still does not fit.
  Rng rng(77);
  constexpr PriorityClass kClasses[] = {
      PriorityClass::kBestEffort, PriorityClass::kTraining,
      PriorityClass::kStream, PriorityClass::kOnline};
  for (int round = 0; round < 4000; ++round) {
    PlacementIndex index(1);
    const ResourceSpec avail{rng.Uniform(0.0, 8.0), GiB(rng.Uniform(0.0, 16.0))};
    // Random pod population on the node, mirrored exactly.
    std::vector<std::pair<PriorityClass, ResourceSpec>> pods;
    const int n = static_cast<int>(rng.UniformInt(0, 12));
    for (int i = 0; i < n; ++i) {
      const PriorityClass cls = kClasses[rng.UniformInt(4)];
      const ResourceSpec req{rng.Uniform(0.5, 8.0), GiB(rng.Uniform(0.5, 16.0))};
      pods.emplace_back(cls, req);
      index.AddPod(0, cls, req);
    }
    const PriorityClass preemptor = kClasses[rng.UniformInt(4)];
    const ResourceSpec request{rng.Uniform(0.5, 48.0),
                               GiB(rng.Uniform(0.5, 96.0))};
    // Scan upper bound: avail plus every strictly-lower-priority request
    // (the fold's final would_free when nothing short of everything fits).
    ResourceSpec would_free = avail;
    for (const auto& pod : pods) {
      if (static_cast<int>(pod.first) < static_cast<int>(preemptor)) {
        would_free += pod.second;
      }
    }
    if (request.FitsIn(would_free)) {
      EXPECT_TRUE(index.MaybeFreeable(0, avail, request, preemptor))
          << "precheck rejected a node the exact fold can use";
    }
  }
}

TEST(PlacementIndexTest, PodAggregatesReanchorOnEmpty) {
  PlacementIndex index(1);
  const ResourceSpec a{1.1, GiB(3)};
  const ResourceSpec b{2.7, GiB(5)};
  index.AddPod(0, PriorityClass::kTraining, a);
  index.AddPod(0, PriorityClass::kTraining, b);
  index.RemovePod(0, PriorityClass::kTraining, a);
  index.RemovePod(0, PriorityClass::kTraining, b);
  const int bucket = PriorityBucket(PriorityClass::kTraining);
  EXPECT_EQ(index.PodCount(0, bucket), 0u);
  // Bitwise zero, not just near-zero: the empty bucket re-anchors.
  EXPECT_EQ(index.PodTotal(0, bucket).cpu, 0.0);
  EXPECT_EQ(index.PodTotal(0, bucket).memory, 0.0);
}

TEST(RunningPodIndexTest, VisitsInCreationOrderPerClass) {
  RunningPodIndex index;
  std::vector<Pod> pods(8);
  // Interleave two classes, inserting out of creation order (pods start
  // running in startup-completion order, not submission order).
  const uint64_t seqs[] = {5, 1, 7, 3, 0, 6, 2, 4};
  for (int i = 0; i < 8; ++i) {
    pods[i].creation_seq = seqs[i];
    pods[i].spec.priority =
        (seqs[i] % 2 == 0) ? PriorityClass::kTraining : PriorityClass::kOnline;
    index.Insert(pods[i].spec.priority, seqs[i], &pods[i]);
  }
  auto collect = [&](PriorityClass cls) {
    std::vector<uint64_t> seen;
    index.Visit(cls, [&](const Pod& pod) { seen.push_back(pod.creation_seq); });
    return seen;
  };
  EXPECT_EQ(collect(PriorityClass::kTraining),
            (std::vector<uint64_t>{0, 2, 4, 6}));
  EXPECT_EQ(collect(PriorityClass::kOnline),
            (std::vector<uint64_t>{1, 3, 5, 7}));
  EXPECT_EQ(index.Size(PriorityClass::kTraining), 4u);

  index.Remove(PriorityClass::kTraining, 2);
  index.Remove(PriorityClass::kOnline, 7);
  EXPECT_EQ(collect(PriorityClass::kTraining),
            (std::vector<uint64_t>{0, 4, 6}));
  EXPECT_EQ(collect(PriorityClass::kOnline), (std::vector<uint64_t>{1, 3, 5}));
  EXPECT_EQ(index.Size(PriorityClass::kTraining), 3u);
  EXPECT_EQ(index.Size(PriorityClass::kOnline), 3u);
}

TEST(RunningPodIndexTest, FuzzMatchesOrderedMirror) {
  Rng rng(31337);
  RunningPodIndex index;
  std::vector<Pod> pods(512);
  std::vector<uint64_t> live;  // mirror, kept sorted = creation order
  uint64_t next_seq = 0;
  for (int step = 0; step < 5000; ++step) {
    if (rng.Uniform() < 0.55 && next_seq < pods.size()) {
      const uint64_t seq = next_seq++;
      pods[seq].creation_seq = seq;
      pods[seq].spec.priority = PriorityClass::kTraining;
      index.Insert(PriorityClass::kTraining, seq, &pods[seq]);
      live.insert(std::lower_bound(live.begin(), live.end(), seq), seq);
    } else if (!live.empty()) {
      const size_t pick = rng.UniformInt(live.size());
      index.Remove(PriorityClass::kTraining, live[pick]);
      live.erase(live.begin() + static_cast<long>(pick));
    }
    if (step % 64 == 0) {
      std::vector<uint64_t> seen;
      index.Visit(PriorityClass::kTraining,
                  [&](const Pod& pod) { seen.push_back(pod.creation_seq); });
      ASSERT_EQ(seen, live) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace dlrover
