// Placement-decision microbench: the PlacementIndex versus the plain scans it
// replaces, at 1x/20x/100x fleet node counts (60/1200/6000 nodes).
//
// Three index-vs-scan comparisons per scale, each over identical state and
// cross-checked decision by decision before timing:
//   - best fit: BestFit() queries vs an O(nodes) scan over the same
//     available-capacity array (pure decision cost, no simulator);
//   - churn: release-and-place cycles on a bare PlacementIndex vs on the
//     array with the scan (each release is one update; each place is one
//     query plus one update);
//   - victim search: the MaybeFreeable precheck plus the exact fold vs the
//     fold on every node, over a saturated snapshot of mixed priorities.
// Two more runs go through a live Cluster, which has no scan arm: churn
// (kill + create) and preempt (create-preempt, kill, refill). They report
// absolute ops/s. Before any timing both scripts run once, untimed, at 1x
// with ClusterOptions::validate_placement_index, which recomputes every
// decision with the scans inside the Cluster and aborts on a difference.
//
// Results land in BENCH_placement.json via the shared stamper. `gate` mode
// (ctest label perf-smoke) runs the 100x scale only and fails if the index
// loses to the scan on any of the three comparisons.
//
// Usage: bench_placement [gate]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement_index.h"
#include "common/rng.h"
#include "harness/reporting.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Fatal(const char* what) {
  std::fprintf(stderr, "FATAL: %s: index and scan disagree\n", what);
  std::exit(1);
}

struct ArmPair {
  double indexed_ops_per_sec = 0.0;
  double scan_ops_per_sec = 0.0;
  double Speedup() const {
    return scan_ops_per_sec > 0.0 ? indexed_ops_per_sec / scan_ops_per_sec
                                  : 0.0;
  }
};

struct ScaleResult {
  int scale = 1;
  int num_nodes = 0;
  ArmPair best_fit;
  ArmPair churn;
  ArmPair victims;
  double cluster_churn_ops_per_sec = 0.0;
  double cluster_preempt_ops_per_sec = 0.0;
};

/// The scan arm's per-query cost is O(nodes): scale its operation count
/// down at large node counts to keep wall time bounded.
int ScanOps(int indexed_ops, int num_nodes) {
  return std::max(indexed_ops / std::max(num_nodes / 60, 1), 512);
}

/// Best-fit reference: Cluster's scan over a plain available-capacity array
/// (every entry schedulable).
int ScanBestFit(const std::vector<ResourceSpec>& available,
                const ResourceSpec& request) {
  int best = -1;
  double best_left = 1e300;
  for (size_t i = 0; i < available.size(); ++i) {
    if (!request.FitsIn(available[i])) continue;
    const double left = available[i].cpu - request.cpu;
    if (left < best_left) {
      best_left = left;
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// Raw best-fit decision cost over an identical randomized capacity state.
/// Queries cycle through a precomputed request mix (feasible sizes, tight
/// sizes, memory-bound sizes, infeasible sizes).
ArmPair RunBestFitMicro(int num_nodes, int queries) {
  Rng rng(7);
  PlacementIndex index(static_cast<size_t>(num_nodes));
  std::vector<ResourceSpec> available(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    // Quantized occupancy: plenty of exact capacity ties across nodes.
    available[static_cast<size_t>(i)] = {
        static_cast<double>(rng.UniformInt(0, 32)),
        GiB(static_cast<double>(rng.UniformInt(0, 192)))};
    index.InsertNode(static_cast<NodeId>(i), available[static_cast<size_t>(i)]);
  }
  std::vector<ResourceSpec> requests(512);
  for (auto& request : requests) {
    request = {static_cast<double>(rng.UniformInt(1, 40)),
               GiB(static_cast<double>(rng.UniformInt(1, 64)))};
  }
  for (const ResourceSpec& request : requests) {
    if (index.BestFit(request) != ScanBestFit(available, request)) {
      Fatal("best fit");
    }
  }

  ArmPair out;
  long sink = 0;
  double t0 = NowSeconds();
  for (int q = 0; q < queries; ++q) {
    sink += index.BestFit(requests[static_cast<size_t>(q) % requests.size()]);
  }
  double t1 = NowSeconds();
  out.indexed_ops_per_sec = queries / (t1 - t0);
  const int scan_queries = ScanOps(queries, num_nodes);
  t0 = NowSeconds();
  for (int q = 0; q < scan_queries; ++q) {
    sink += ScanBestFit(available,
                        requests[static_cast<size_t>(q) % requests.size()]);
  }
  t1 = NowSeconds();
  out.scan_ops_per_sec = scan_queries / (t1 - t0);
  if (sink == 123456789) std::fprintf(stderr, "(sink)\n");
  return out;
}

/// Release-and-place churn: fill the nodes to ~75% with best-fit
/// placements, then per op release a random pod (one capacity update) and
/// place a fresh request (one best-fit decision, one update). Both arms
/// replay the same script; `decisions` receives every chosen node. Returns
/// the timed ops/s of the churn loop (a release and a place count as two).
double RunChurnArm(bool indexed, int num_nodes, int ops,
                   std::vector<int>* decisions) {
  Rng rng(11);
  PlacementIndex index(static_cast<size_t>(num_nodes));
  std::vector<ResourceSpec> available(static_cast<size_t>(num_nodes),
                                      ResourceSpec{32.0, GiB(192)});
  if (indexed) {
    for (int i = 0; i < num_nodes; ++i) {
      index.InsertNode(static_cast<NodeId>(i),
                       available[static_cast<size_t>(i)]);
    }
  }
  struct Placed {
    int node;
    ResourceSpec request;
  };
  std::vector<Placed> pods;
  decisions->clear();
  decisions->reserve(static_cast<size_t>(num_nodes) * 6 +
                     static_cast<size_t>(ops));
  auto place = [&](const ResourceSpec& request) {
    const int node = indexed ? index.BestFit(request)
                             : ScanBestFit(available, request);
    decisions->push_back(node);
    if (node < 0) return;
    ResourceSpec& avail = available[static_cast<size_t>(node)];
    avail -= request;
    if (indexed) index.UpdateNode(static_cast<NodeId>(node), avail);
    pods.push_back({node, request});
  };
  auto next_request = [&rng]() {
    return ResourceSpec{static_cast<double>(rng.UniformInt(1, 8)),
                        GiB(static_cast<double>(rng.UniformInt(4, 32)))};
  };
  // ~84% CPU occupancy: six pods of 4.5 cores on average per 32-core node.
  for (int i = 0; i < num_nodes * 6; ++i) place(next_request());

  const double t0 = NowSeconds();
  for (int i = 0; i < ops && !pods.empty(); ++i) {
    const size_t pick = rng.UniformInt(pods.size());
    const Placed victim = pods[pick];
    pods[pick] = pods.back();
    pods.pop_back();
    ResourceSpec& avail = available[static_cast<size_t>(victim.node)];
    avail += victim.request;
    if (indexed) index.UpdateNode(static_cast<NodeId>(victim.node), avail);
    place(next_request());
  }
  const double t1 = NowSeconds();
  return 2.0 * ops / (t1 - t0);
}

ArmPair RunChurnMicro(int num_nodes, int ops) {
  // Cross-check the full decision sequence of a short script first.
  std::vector<int> indexed_decisions;
  std::vector<int> scan_decisions;
  RunChurnArm(true, num_nodes, 2000, &indexed_decisions);
  RunChurnArm(false, num_nodes, 2000, &scan_decisions);
  if (indexed_decisions != scan_decisions) Fatal("churn");

  ArmPair out;
  out.indexed_ops_per_sec = RunChurnArm(true, num_nodes, ops,
                                        &indexed_decisions);
  out.scan_ops_per_sec = RunChurnArm(false, num_nodes,
                                     ScanOps(ops, num_nodes), &scan_decisions);
  return out;
}

/// Saturated snapshot for the victim search: every node holds eight
/// 4-core / 24 GiB pods (exactly full), mostly online-priority, so only
/// some nodes can make room for a given preemptor.
struct Snapshot {
  struct SnapPod {
    PriorityClass priority;
    ResourceSpec request;
    PodId id;
  };
  std::vector<std::vector<SnapPod>> pods;  // per node
  std::vector<ResourceSpec> available;     // per node
  PlacementIndex index;

  explicit Snapshot(int num_nodes) : index(static_cast<size_t>(num_nodes)) {
    Rng rng(13);
    PodId next_id = 1;
    pods.resize(static_cast<size_t>(num_nodes));
    available.assign(static_cast<size_t>(num_nodes), ResourceSpec{});
    for (int n = 0; n < num_nodes; ++n) {
      const NodeId node = static_cast<NodeId>(n);
      index.InsertNode(node, ResourceSpec{});
      for (int p = 0; p < 8; ++p) {
        const double dice = rng.Uniform();
        const PriorityClass priority = dice < 0.05   ? PriorityClass::kBestEffort
                                       : dice < 0.10 ? PriorityClass::kTraining
                                       : dice < 0.20 ? PriorityClass::kStream
                                                     : PriorityClass::kOnline;
        const ResourceSpec request{4.0, GiB(24)};
        pods[static_cast<size_t>(n)].push_back({priority, request, next_id++});
        index.AddPod(node, priority, request);
      }
    }
  }
};

/// The exact victim fold of one node (Cluster's rule: evict strictly
/// lower-priority pods, lowest priority first, until the request fits).
bool FoldNode(const std::vector<Snapshot::SnapPod>& node_pods,
              const ResourceSpec& available, const ResourceSpec& request,
              PriorityClass priority,
              std::vector<std::pair<int, size_t>>* candidates,
              std::vector<PodId>* victims) {
  candidates->clear();
  for (size_t i = 0; i < node_pods.size(); ++i) {
    candidates->emplace_back(static_cast<int>(node_pods[i].priority), i);
  }
  std::sort(candidates->begin(), candidates->end(),
            [](const std::pair<int, size_t>& a,
               const std::pair<int, size_t>& b) { return a.first < b.first; });
  ResourceSpec would_free = available;
  victims->clear();
  for (const std::pair<int, size_t>& cand : *candidates) {
    if (request.FitsIn(would_free)) break;
    if (cand.first >= static_cast<int>(priority)) continue;
    would_free += node_pods[cand.second].request;
    victims->push_back(node_pods[cand.second].id);
  }
  return request.FitsIn(would_free);
}

/// First node (id order) that can make room, or -1; `victims` holds its
/// eviction list. The indexed arm skips nodes MaybeFreeable rules out.
int FindVictims(const Snapshot& snap, bool indexed, const ResourceSpec& request,
                PriorityClass priority,
                std::vector<std::pair<int, size_t>>* candidates,
                std::vector<PodId>* victims) {
  for (size_t n = 0; n < snap.pods.size(); ++n) {
    if (indexed && !snap.index.MaybeFreeable(static_cast<NodeId>(n),
                                             snap.available[n], request,
                                             priority)) {
      continue;
    }
    if (FoldNode(snap.pods[n], snap.available[n], request, priority,
                 candidates, victims)) {
      return static_cast<int>(n);
    }
  }
  victims->clear();
  return -1;
}

ArmPair RunVictimMicro(int num_nodes, int queries) {
  const Snapshot snap(num_nodes);
  Rng rng(17);
  struct Query {
    ResourceSpec request;
    PriorityClass priority;
  };
  // 4-20 cores (one to five victims), plus ~1 in 6 that no node can serve.
  std::vector<Query> mix(64);
  for (Query& q : mix) {
    const int pods_needed = static_cast<int>(rng.UniformInt(1, 6));
    q.request = {4.0 * (pods_needed == 6 ? 9 : pods_needed), GiB(16)};
    q.priority = rng.Uniform() < 0.5 ? PriorityClass::kOnline
                                     : PriorityClass::kStream;
  }
  std::vector<std::pair<int, size_t>> candidates;
  std::vector<PodId> indexed_victims;
  std::vector<PodId> scan_victims;
  for (const Query& q : mix) {
    const int a = FindVictims(snap, true, q.request, q.priority, &candidates,
                              &indexed_victims);
    const int b = FindVictims(snap, false, q.request, q.priority, &candidates,
                              &scan_victims);
    if (a != b || indexed_victims != scan_victims) Fatal("victim search");
  }

  // Both arms time whole passes over the mix, so they see the same queries;
  // the scan arm runs fewer passes at large node counts.
  auto time_passes = [&](bool indexed, int passes,
                         std::vector<PodId>* victims) {
    long sink = 0;
    const double t0 = NowSeconds();
    for (int p = 0; p < passes; ++p) {
      for (const Query& q : mix) {
        sink += FindVictims(snap, indexed, q.request, q.priority, &candidates,
                            victims);
      }
    }
    const double t1 = NowSeconds();
    if (sink == 123456789) std::fprintf(stderr, "(sink)\n");
    return static_cast<double>(passes) * static_cast<double>(mix.size()) /
           (t1 - t0);
  };
  const int passes = std::max(queries / static_cast<int>(mix.size()), 1);
  ArmPair out;
  out.indexed_ops_per_sec = time_passes(true, passes, &indexed_victims);
  out.scan_ops_per_sec = time_passes(
      false, std::max(passes / std::max(num_nodes / 60, 1), 1), &scan_victims);
  return out;
}

ClusterOptions LiveOptions(int num_nodes, bool validate) {
  ClusterOptions options;
  options.num_nodes = num_nodes;
  options.node_capacity = {32.0, GiB(192)};
  options.seed = 23;
  options.validate_placement_index = validate;
  return options;
}

/// Whole-pipeline placement cost through a live Cluster: kill a random pod,
/// create a replacement. Every create runs a best-fit decision; kills
/// update the capacity state.
double RunClusterChurn(int num_nodes, int iters, bool validate) {
  Simulator sim;
  Cluster cluster(&sim, LiveOptions(num_nodes, validate));
  Rng rng(11);
  std::vector<PodId> pods;
  auto create = [&]() {
    PodSpec spec;
    spec.name = "churn";
    spec.request = {4.0, GiB(16)};
    spec.priority = PriorityClass::kTraining;
    pods.push_back(cluster.CreatePod(std::move(spec), nullptr, nullptr));
  };
  // ~75% occupancy: six 4-core pods on each 32-core node.
  for (int i = 0; i < num_nodes * 6; ++i) create();
  sim.RunUntil(Minutes(5));

  const double t0 = NowSeconds();
  for (int i = 0; i < iters; ++i) {
    const size_t pick = rng.UniformInt(pods.size());
    cluster.KillPod(pods[pick]);
    pods[pick] = pods.back();
    pods.pop_back();
    create();
    if ((i & 63) == 63) sim.RunUntil(sim.Now() + Seconds(90));
  }
  const double t1 = NowSeconds();
  return 2.0 * iters / (t1 - t0);
}

/// Victim-search cost through a live Cluster: the cluster is saturated with
/// best-effort pods; each cycle creates an online pod (forcing a
/// preemption), kills it, and refills the hole with a best-effort pod.
double RunClusterPreempt(int num_nodes, int iters, bool validate) {
  Simulator sim;
  Cluster cluster(&sim, LiveOptions(num_nodes, validate));
  std::vector<PodId> online;
  auto create = [&](PriorityClass priority) {
    PodSpec spec;
    spec.name = priority == PriorityClass::kOnline ? "spike" : "filler";
    spec.request = {4.0, GiB(16)};
    spec.priority = priority;
    const PodId id = cluster.CreatePod(std::move(spec), nullptr, nullptr);
    if (priority == PriorityClass::kOnline) online.push_back(id);
  };
  // Saturate: eight 4-core pods fill each 32-core node exactly.
  for (int i = 0; i < num_nodes * 8; ++i) create(PriorityClass::kBestEffort);
  sim.RunUntil(Minutes(5));

  const double t0 = NowSeconds();
  for (int i = 0; i < iters; ++i) {
    create(PriorityClass::kOnline);  // full cluster: must preempt a filler
    cluster.KillPod(online.back());
    online.pop_back();
    create(PriorityClass::kBestEffort);  // refill the freed slot
    // Advance time: resets the per-instant preemption budget and retires
    // queued startups before the event backlog grows unbounded.
    if ((i & 63) == 63) sim.RunUntil(sim.Now() + Seconds(90));
  }
  const double t1 = NowSeconds();
  if (cluster.counters().pods_preempted < static_cast<uint64_t>(iters)) {
    std::fprintf(stderr, "FATAL: preempt churn stopped preempting\n");
    std::exit(1);
  }
  return 3.0 * iters / (t1 - t0);
}

int Run(bool gate) {
  PrintBanner(gate ? "placement decisions: index >= scan gate (100x)"
                   : "placement decisions: index vs scan");
  const int live_iters = gate ? 1000 : 2000;
  // Validated pass: every live-cluster decision re-derived by the scans.
  // At 1x a full re-check per mutation stays cheap.
  RunClusterChurn(60, live_iters, /*validate=*/true);
  RunClusterPreempt(60, live_iters, /*validate=*/true);

  std::vector<ScaleResult> results;
  const int scales[] = {1, 20, 100};
  for (int scale : scales) {
    if (gate && scale != 100) continue;
    ScaleResult r;
    r.scale = scale;
    r.num_nodes = 60 * scale;
    std::printf("running %dx (%d nodes)...\n", scale, r.num_nodes);
    std::fflush(stdout);
    r.best_fit = RunBestFitMicro(r.num_nodes, scale >= 100 ? 200000 : 400000);
    r.churn = RunChurnMicro(r.num_nodes, scale >= 100 ? 100000 : 200000);
    r.victims = RunVictimMicro(r.num_nodes, scale >= 100 ? 20000 : 40000);
    r.cluster_churn_ops_per_sec =
        RunClusterChurn(r.num_nodes, live_iters, /*validate=*/false);
    r.cluster_preempt_ops_per_sec =
        RunClusterPreempt(r.num_nodes, live_iters, /*validate=*/false);
    results.push_back(r);
  }

  TablePrinter table({"scale", "nodes", "bestfit idx/s", "bestfit scan/s",
                      "churn idx/s", "churn scan/s", "victim idx/s",
                      "victim scan/s", "cluster churn/s",
                      "cluster preempt/s"});
  for (const ScaleResult& r : results) {
    table.AddRow({StrFormat("%dx", r.scale), StrFormat("%d", r.num_nodes),
                  StrFormat("%.3g", r.best_fit.indexed_ops_per_sec),
                  StrFormat("%.3g", r.best_fit.scan_ops_per_sec),
                  StrFormat("%.3g", r.churn.indexed_ops_per_sec),
                  StrFormat("%.3g", r.churn.scan_ops_per_sec),
                  StrFormat("%.3g", r.victims.indexed_ops_per_sec),
                  StrFormat("%.3g", r.victims.scan_ops_per_sec),
                  StrFormat("%.3g", r.cluster_churn_ops_per_sec),
                  StrFormat("%.3g", r.cluster_preempt_ops_per_sec)});
  }
  table.Print();

  FILE* json = OpenBenchJson("BENCH_placement.json", "placement");
  if (json != nullptr) {
    std::fprintf(json, "  \"gate_mode\": %s,\n", gate ? "true" : "false");
    std::fprintf(json, "  \"scales\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const ScaleResult& r = results[i];
      std::fprintf(
          json,
          "    {\"scale\": %d, \"nodes\": %d,\n"
          "     \"bestfit_indexed_qps\": %.1f, \"bestfit_scan_qps\": %.1f,"
          " \"bestfit_speedup\": %.2f,\n"
          "     \"churn_indexed_ops\": %.1f, \"churn_scan_ops\": %.1f,"
          " \"churn_speedup\": %.2f,\n"
          "     \"victim_indexed_qps\": %.1f, \"victim_scan_qps\": %.1f,"
          " \"victim_speedup\": %.2f,\n"
          "     \"cluster_churn_ops\": %.1f, \"cluster_preempt_ops\": %.1f}%s\n",
          r.scale, r.num_nodes, r.best_fit.indexed_ops_per_sec,
          r.best_fit.scan_ops_per_sec, r.best_fit.Speedup(),
          r.churn.indexed_ops_per_sec, r.churn.scan_ops_per_sec,
          r.churn.Speedup(), r.victims.indexed_ops_per_sec,
          r.victims.scan_ops_per_sec, r.victims.Speedup(),
          r.cluster_churn_ops_per_sec, r.cluster_preempt_ops_per_sec,
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_placement.json\n");
  }

  // Throughput gate at 100x: the index must not lose to the scan on any of
  // the three comparisons.
  for (const ScaleResult& r : results) {
    if (r.scale != 100) continue;
    const bool ok = r.best_fit.Speedup() >= 1.0 && r.churn.Speedup() >= 1.0 &&
                    r.victims.Speedup() >= 1.0;
    std::printf("100x gate (index >= scan): %s\n", ok ? "PASS" : "FAIL");
    if (!ok) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dlrover

int main(int argc, char** argv) {
  const bool gate = argc > 1 && std::strcmp(argv[1], "gate") == 0;
  return dlrover::Run(gate);
}
