#include "cluster/cluster.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/logging.h"

namespace dlrover {
namespace {
/// Extra multiplier on startup during resource scarcity (the paper reports
/// >30 minutes under daytime scarcity).
constexpr double kScarcityStartupFactor = 3.0;
/// Fraction of free cluster CPU below which scarcity mode is assumed.
constexpr double kScarcityThreshold = 0.10;
/// Retry interval for the pending queue.
constexpr Duration kRescheduleInterval = Seconds(15);
}  // namespace

std::string ResourceSpec::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{cpu=%.2f, mem=%.1fGiB}", cpu, ToGiB(memory));
  return buf;
}

Cluster::Cluster(Simulator* sim, const ClusterOptions& options)
    : sim_(sim),
      options_(options),
      rng_(options.seed),
      placement_index_(static_cast<size_t>(options.num_nodes)) {
  nodes_.reserve(static_cast<size_t>(options.num_nodes));
  for (int i = 0; i < options.num_nodes; ++i) {
    Node node;
    node.id = static_cast<NodeId>(i);
    node.capacity = options.node_capacity;
    capacity_total_ += node.capacity;
    nodes_.push_back(node);
    placement_index_.InsertNode(node.id, node.Available());
  }
  pump_task_ = std::make_unique<PeriodicTask>(
      sim_, kRescheduleInterval, [this] { PumpPendingQueue(); });
  pump_task_->Start();
  if (options_.enable_node_health) {
    health_ = std::make_unique<NodeHealthTracker>(nodes_.size());
    health_task_ = std::make_unique<PeriodicTask>(
        sim_, NodeHealthTracker::kTickInterval, [this] { HealthTick(); });
    health_task_->Start();
  }
}

PodId Cluster::CreatePod(PodSpec spec, std::function<void(Pod&)> on_running,
                         std::function<void(Pod&, PodStopReason)> on_stopped) {
  if (free_slots_.empty()) {  // a new slot, its vacant Pod at generation 0
    free_slots_.push_back(static_cast<uint32_t>(slots_.size()));
    slots_.push_back(std::make_unique<Pod>());
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  // Re-arming the slot in place is the moment the previous tenant's id goes
  // stale: until now a terminated pod was still resolvable by its id.
  const PodId id = MakeId(slot, static_cast<uint32_t>(slots_[slot]->id) + 1);
  *slots_[slot] = Pod{.id = id,
                      .spec = std::move(spec),
                      .creation_seq = next_creation_seq_++,
                      .submit_time = sim_->Now(),
                      .on_running = std::move(on_running),
                      .on_stopped = std::move(on_stopped)};
  ++counters_.pods_created;

  // Hold the pending queue off while placing: the capacity preemption frees
  // for this (higher-priority) pod must not be grabbed by a lower-priority
  // pending pod via the Terminate->pump path.
  const bool was_pumping = pumping_;
  pumping_ = true;
  PlaceOrQueue(id, &pending_);
  pumping_ = was_pumping;
  if (!was_pumping && repump_) {
    repump_ = false;
    PumpPendingQueue();
  }
  return id;
}

void Cluster::PlaceOrQueue(PodId id, std::deque<PodId>* queue) {
  if (TryPlace(*Resolve(id))) return;
  // Eviction runs the victims' stop callbacks. They may kill this pod, and
  // a pod created after that re-arms its slot, so resolve it again by id.
  if (TryPreemptFor(*Resolve(id))) {
    Pod* pod = Resolve(id);
    if (pod == nullptr || pod->phase != PodPhase::kPending || TryPlace(*pod)) {
      return;
    }
  }
  queue->push_back(id);
}

bool Cluster::TryPlace(Pod& pod) {
  // Best-fit: choose the uncordoned node with the least remaining CPU that
  // still fits the request (packs tightly, leaving large holes for big pods).
  const int best = placement_index_.BestFit(pod.spec.request);
  if (options_.validate_placement_index &&
      best != ScanBestFit(pod.spec.request)) {
    DieOutOfSync("best-fit node vs reference scan");
  }
  if (best < 0) return false;

  Node& node = nodes_[static_cast<size_t>(best)];
  node.allocated += pod.spec.request;
  allocated_total_ += pod.spec.request;
  LogDelta(ClusterCommitLog::Kind::kAllocated, pod.spec.request);
  node.pods.push_back(pod.id);
  pod.node = node.id;
  pod.phase = PodPhase::kStarting;
  pod.speed_factor = 1.0;  // a placed pod starts at nominal speed
  ++counters_.placements;
  ++mutation_version_;
  placement_index_.UpdateNode(node.id, node.Available());
  placement_index_.AddPod(node.id, pod.spec.priority, pod.spec.request);
  if (options_.validate_placement_index) ValidatePlacementIndex();

  Duration startup = rng_.Uniform(options_.min_pod_startup,
                                  options_.max_pod_startup);
  if (UnderScarcity()) startup *= kScarcityStartupFactor;
  const PodId id = pod.id;
  sim_->ScheduleAfter(startup, [this, id] { FinishStartup(id); });
  return true;
}

bool Cluster::TryPreemptFor(Pod& pod) {
  // Livelock breaker: once this instant's preemption budget is spent the
  // attempt fails outright and the pod waits in the pending queue until
  // simulated time advances (see ClusterOptions::max_preemptions_per_instant).
  if (sim_->Now() == preemption_instant_ &&
      preempted_at_instant_ >= options_.max_preemptions_per_instant) {
    return false;
  }
  // The victim list stays live while eviction callbacks run, and those can
  // preempt again, so each re-entrancy depth owns a slot. The pool grows by
  // one slot the first time a depth is reached; deque growth at the back
  // keeps the outer frames' references valid.
  if (preempt_depth_ == victims_pool_.size()) victims_pool_.emplace_back();
  std::vector<PodId>& victims = victims_pool_[preempt_depth_];
  ++preempt_depth_;
  struct DepthGuard {
    size_t& depth;
    ~DepthGuard() { --depth; }
  } guard{preempt_depth_};
  const bool found = FindVictims(pod, &victims);
  if (options_.validate_placement_index) {
    std::vector<PodId> want;
    if (ScanVictims(pod, &want) != found || (found && want != victims)) {
      DieOutOfSync("preemption victims vs reference scan");
    }
  }
  return found && EvictVictims(victims);
}

bool Cluster::FindVictims(const Pod& pod, std::vector<PodId>* victims) {
  // The per-node priority-bucketed aggregates give an O(1) conservative
  // "can evicting everything below this priority possibly free enough
  // room?" precheck, so the O(pods log pods) sort-and-fold below only runs
  // on nodes that can actually help: normally exactly one.
  for (const Node& node : nodes_) {
    if (node.cordoned) continue;
    if (!placement_index_.MaybeFreeable(node.id, node.Available(),
                                        pod.spec.request, pod.spec.priority)) {
      continue;
    }
    // Evict lowest priority first. Sorting cached (priority, id) pairs
    // produces the permutation ScanVictims' comparator on resolved pods
    // does: std::sort's element order depends only on its comparison
    // outcomes, and the cached priorities answer exactly the same questions.
    preempt_candidates_.clear();
    for (PodId pid : node.pods) {
      preempt_candidates_.emplace_back(
          static_cast<int>(Resolve(pid)->spec.priority), pid);
    }
    std::sort(preempt_candidates_.begin(), preempt_candidates_.end(),
              [](const std::pair<int, PodId>& a,
                 const std::pair<int, PodId>& b) { return a.first < b.first; });
    ResourceSpec would_free = node.Available();
    victims->clear();
    for (const std::pair<int, PodId>& cand : preempt_candidates_) {
      if (pod.spec.request.FitsIn(would_free)) break;
      if (cand.first >= static_cast<int>(pod.spec.priority)) continue;
      would_free += Resolve(cand.second)->spec.request;
      victims->push_back(cand.second);
    }
    if (pod.spec.request.FitsIn(would_free)) return true;
  }
  return false;
}

int Cluster::ScanBestFit(const ResourceSpec& request) const {
  int best = -1;
  double best_left = std::numeric_limits<double>::infinity();
  for (const Node& node : nodes_) {
    if (node.cordoned) continue;
    if (!request.FitsIn(node.Available())) continue;
    const double left = node.Available().cpu - request.cpu;
    if (left < best_left) {
      best_left = left;
      best = static_cast<int>(node.id);
    }
  }
  return best;
}

bool Cluster::ScanVictims(const Pod& pod, std::vector<PodId>* victims) const {
  // Only higher-priority pods may preempt. The first node, in id order,
  // where evicting strictly lower-priority pods (lowest first) frees enough
  // room supplies the victims.
  for (const Node& node : nodes_) {
    if (node.cordoned) continue;
    std::vector<PodId> candidates = node.pods;
    std::sort(candidates.begin(), candidates.end(),
              [this](PodId a, PodId b) {
                return static_cast<int>(Resolve(a)->spec.priority) <
                       static_cast<int>(Resolve(b)->spec.priority);
              });
    ResourceSpec would_free = node.Available();
    victims->clear();
    for (PodId vid : candidates) {
      if (pod.spec.request.FitsIn(would_free)) break;
      const Pod& victim = *Resolve(vid);
      if (victim.spec.priority >= pod.spec.priority) continue;
      would_free += victim.spec.request;
      victims->push_back(vid);
    }
    if (pod.spec.request.FitsIn(would_free)) return true;
  }
  victims->clear();
  return false;
}

bool Cluster::EvictVictims(const std::vector<PodId>& victims) {
  if (sim_->Now() != preemption_instant_) {
    preemption_instant_ = sim_->Now();
    preempted_at_instant_ = 0;
  }
  preempted_at_instant_ += victims.size();
  for (PodId vid : victims) {
    ++counters_.pods_preempted;
    // A victim's stop callback can transitively kill (and recycle the
    // slot of) a later victim in this list; a stale id then resolves
    // null and the Terminate it would have received is a no-op anyway.
    if (Pod* victim = Resolve(vid)) {
      Terminate(*victim, PodPhase::kPreempted, PodStopReason::kPreemption);
    }
  }
  return !victims.empty();
}

void Cluster::FinishStartup(PodId id) {
  Pod* pod = Resolve(id);
  if (pod == nullptr) return;
  if (pod->phase != PodPhase::kStarting) return;  // killed while starting
  pod->phase = PodPhase::kRunning;
  pod->start_time = sim_->Now();
  ++mutation_version_;
  running_index_.Insert(pod->spec.priority, pod->creation_seq, pod);
  if (options_.validate_placement_index) ValidatePlacementIndex();
  // Moved out first: a pod created after the callback kills this one would
  // re-arm the slot and replace the callback while it runs.
  const auto on_running = std::move(pod->on_running);
  if (on_running) on_running(*pod);
}

void Cluster::KillPod(PodId id, bool graceful_success) {
  Pod* pod = Resolve(id);
  if (pod == nullptr) return;
  if (pod->terminal()) return;
  Terminate(*pod, graceful_success ? PodPhase::kSucceeded : PodPhase::kKilled,
            graceful_success ? PodStopReason::kCompleted
                             : PodStopReason::kOwnerKill);
}

void Cluster::FailPod(PodId id, PodStopReason reason) {
  Pod* pod = Resolve(id);
  if (pod == nullptr) return;
  if (pod->phase != PodPhase::kRunning && pod->phase != PodPhase::kStarting) {
    return;
  }
  ++counters_.pods_failed;
  Terminate(*pod, PodPhase::kFailed, reason);
}

void Cluster::DegradePod(PodId id, double speed_factor) {
  Pod* pod = GetMutablePod(id);
  if (pod == nullptr || pod->terminal()) return;
  pod->speed_factor = speed_factor;
  ++mutation_version_;
}

void Cluster::CordonNode(NodeId id) {
  Node& node = nodes_[id];
  if (node.cordoned) return;
  node.cordoned = true;
  ++counters_.nodes_cordoned;
  ++mutation_version_;
  cordoned_capacity_ += node.capacity;
  LogDelta(ClusterCommitLog::Kind::kCordoned, node.capacity);
  placement_index_.RemoveNode(id);
  if (options_.validate_placement_index) ValidatePlacementIndex();
}

void Cluster::DrainNode(NodeId id) {
  CordonNode(id);
  nodes_[id].draining = true;
}

void Cluster::UncordonNode(NodeId id) {
  Node& node = nodes_[id];
  if (!node.cordoned) return;
  node.cordoned = false;
  node.draining = false;
  ++counters_.nodes_uncordoned;
  ++mutation_version_;
  cordoned_capacity_ -= node.capacity;
  LogDelta(ClusterCommitLog::Kind::kCordoned, ResourceSpec{} - node.capacity);
  placement_index_.InsertNode(id, node.Available());
  if (options_.validate_placement_index) ValidatePlacementIndex();
  // The node is schedulable again: pending pods may fit immediately.
  PumpPendingQueue();
}

double Cluster::NodeMemUsedFraction(NodeId id) const {
  const Node& node = nodes_[id];
  if (node.capacity.memory <= 0.0) return 0.0;
  Bytes used = node.usage_bias;
  for (PodId pid : node.pods) {
    const Pod* pod = Resolve(pid);
    if (pod != nullptr) used += pod->usage.memory;
  }
  return used / node.capacity.memory;
}

double Cluster::NodeUnaccountedMemFraction(NodeId id) const {
  const Node& node = nodes_[id];
  if (node.capacity.memory <= 0.0) return 0.0;
  return node.usage_bias / node.capacity.memory;
}

void Cluster::ReportStragglerEvidence(PodId id) {
  if (health_ == nullptr) return;
  const Pod* pod = Resolve(id);
  if (pod == nullptr || pod->phase != PodPhase::kRunning) return;
  health_->ObserveStraggler(pod->node, id, sim_->Now());
}

void Cluster::ReportPsSlowdownEvidence(PodId id, uint64_t source_job) {
  if (health_ == nullptr) return;
  const Pod* pod = Resolve(id);
  if (pod == nullptr || pod->phase != PodPhase::kRunning) return;
  health_->ObservePsSlowdown(pod->node, source_job, sim_->Now());
}

ResourceSpec Cluster::QuarantinedCapacity() const {
  ResourceSpec total = cordoned_capacity_;
  if (health_ != nullptr) {
    for (const Node& node : nodes_) {
      if (!node.cordoned &&
          health_->state(node.id) == NodeHealthState::kSuspect) {
        total += node.capacity;
      }
    }
  }
  return total;
}

void Cluster::HealthTick() {
  const SimTime now = sim_->Now();
  for (const Node& node : nodes_) {
    health_->ObserveNodeMemory(node.id, NodeUnaccountedMemFraction(node.id),
                               now);
  }
  // Tick returns actions in node-id order; applying them in that order keeps
  // the commit-log entry sequence deterministic.
  for (const NodeHealthTracker::Action& action : health_->Tick(now)) {
    if (action.cordon) {
      DrainNode(action.node);
    } else {
      UncordonNode(action.node);
    }
  }
}

void Cluster::set_commit_log(ClusterCommitLog* log) {
  commit_log_ = log;
  if (commit_log_ == nullptr) return;
  // Opening entries: a fold that starts from zero reconstructs the totals
  // as they stand at attach time.
  LogDelta(ClusterCommitLog::Kind::kCapacity, TotalCapacity());
  LogDelta(ClusterCommitLog::Kind::kAllocated, TotalAllocated());
  LogDelta(ClusterCommitLog::Kind::kUsage, TotalUsage());
  LogDelta(ClusterCommitLog::Kind::kCordoned, cordoned_capacity_);
}

void Cluster::Terminate(Pod& pod, PodPhase phase, PodStopReason reason) {
  // Idempotent: preemption collects victims up front, and a victim's stop
  // callback can transitively kill other pods in that victim list (a job
  // restarting tears down all of its pods). The second Terminate on such a
  // pod must be a no-op — in particular it must not fire callbacks again.
  if (pod.terminal()) return;
  const bool was_pending = pod.phase == PodPhase::kPending;
  const bool was_placed =
      pod.phase == PodPhase::kStarting || pod.phase == PodPhase::kRunning;
  // Captured before the usage wipe below. An OOM is node evidence only when
  // the victim was within its own memory allocation: the kernel killing an
  // innocent pod points at node-level pressure, while a pod that blew its
  // own budget points at itself (think cgroup-limit kill vs global OOM).
  const bool self_oom = reason == PodStopReason::kOomKill &&
                        pod.usage.memory >= pod.spec.request.memory;
  if (pod.phase == PodPhase::kRunning) {
    usage_total_ -= pod.usage;
    LogDelta(ClusterCommitLog::Kind::kUsage, ResourceSpec{} - pod.usage);
    running_index_.Remove(pod.spec.priority, pod.creation_seq);
  }
  if (pod.phase == PodPhase::kStarting || pod.phase == PodPhase::kRunning) {
    ReleaseFromNode(pod);
  }
  if (was_pending) {
    auto it = std::find(pending_.begin(), pending_.end(), pod.id);
    if (it != pending_.end()) pending_.erase(it);
  }
  pod.phase = phase;
  pod.end_time = sim_->Now();
  pod.usage = {};
  ++mutation_version_;
  if (options_.validate_placement_index) ValidatePlacementIndex();
  // Node-health evidence: crash-like deaths of placed pods charge the node.
  if (health_ != nullptr && was_placed && !self_oom &&
      (reason == PodStopReason::kCrash || reason == PodStopReason::kOomKill)) {
    const Duration uptime =
        pod.start_time >= 0.0 ? sim_->Now() - pod.start_time : -1.0;
    health_->ObservePodStopped(pod.node, reason, uptime, sim_->Now());
  }
  if (pod.on_stopped) pod.on_stopped(pod, reason);
  // Only now does the slot become recyclable (the stop callback above may
  // read the pod by id). The pod stays resolvable until a later CreatePod
  // re-arms the slot in place, so past this line `pod` may be a new tenant.
  free_slots_.push_back(static_cast<uint32_t>((pod.id >> 32) - 1));
  // Freed capacity may unblock pending pods.
  PumpPendingQueue();
}

void Cluster::ReleaseFromNode(Pod& pod) {
  Node& node = nodes_[pod.node];
  allocated_total_ -= pod.spec.request;
  LogDelta(ClusterCommitLog::Kind::kAllocated,
           ResourceSpec{} - pod.spec.request);
  node.allocated -= pod.spec.request;
  node.allocated.cpu = std::max(0.0, node.allocated.cpu);
  node.allocated.memory = std::max(0.0, node.allocated.memory);
  auto it = std::find(node.pods.begin(), node.pods.end(), pod.id);
  if (it != node.pods.end()) node.pods.erase(it);
  placement_index_.RemovePod(node.id, pod.spec.priority, pod.spec.request);
  // A cordoned node is not in the capacity tree; its key is refreshed when
  // UncordonNode re-inserts it.
  if (!node.cordoned) {
    placement_index_.UpdateNode(node.id, node.Available());
  }
}

void Cluster::PumpPendingQueue() {
  // Placement triggers pod-stop callbacks (preemption) which re-enter the
  // cluster arbitrarily (jobs kill/create pods, which calls back in here).
  // Guard against recursion and iterate over a snapshot: nested calls just
  // request another pass.
  if (pumping_) {
    repump_ = true;
    return;
  }
  pumping_ = true;
  do {
    repump_ = false;
    if (pending_.empty()) break;
    // Highest priority first, FIFO within a class.
    std::stable_sort(pending_.begin(), pending_.end(),
                     [this](PodId a, PodId b) {
                       return static_cast<int>(Resolve(a)->spec.priority) >
                              static_cast<int>(Resolve(b)->spec.priority);
                     });
    const std::vector<PodId> snapshot(pending_.begin(), pending_.end());
    pending_.clear();  // nested CreatePod may add fresh ids meanwhile
    std::deque<PodId> still_pending;
    for (PodId id : snapshot) {
      const Pod* pod = Resolve(id);
      if (pod == nullptr || pod->phase != PodPhase::kPending) continue;
      PlaceOrQueue(id, &still_pending);
    }
    for (PodId id : pending_) still_pending.push_back(id);
    pending_ = std::move(still_pending);
  } while (repump_);
  pumping_ = false;
}

Pod* Cluster::Resolve(PodId id) const {
  const uint64_t slot_plus_one = id >> 32;
  if (slot_plus_one == 0 || slot_plus_one > slots_.size()) return nullptr;
  Pod* pod = slots_[slot_plus_one - 1].get();
  // A re-armed slot holds a tenant with a newer generation: the stale id
  // resolves null.
  return pod->id == id ? pod : nullptr;
}

const Pod* Cluster::GetPod(PodId id) const { return Resolve(id); }

Pod* Cluster::GetMutablePod(PodId id) { return Resolve(id); }

void Cluster::VisitPods(const std::function<void(const Pod&)>& fn) const {
  for (const auto& pod : slots_) fn(*pod);
}

void Cluster::VisitRunningPods(
    PriorityClass priority, const std::function<void(const Pod&)>& fn) const {
  running_index_.Visit(priority, fn);
}

void Cluster::DieOutOfSync(const char* what) {
  DLROVER_LOG_STREAM(Error) << "placement index out of sync: " << what;
  std::abort();
}

void Cluster::ValidatePlacementIndex() const {
  // Capacity tree: every schedulable (uncordoned) node present with exactly
  // the doubles a fresh Available() computes (bitwise — the index serves
  // the same values the reference scan reads); cordoned nodes absent.
  size_t schedulable = 0;
  for (const Node& node : nodes_) {
    ResourceSpec indexed;
    const bool present = placement_index_.GetIndexed(node.id, &indexed);
    if (present != !node.cordoned) {
      DieOutOfSync("tree membership vs node cordon state");
    }
    if (present && (indexed.cpu != node.Available().cpu ||
                    indexed.memory != node.Available().memory)) {
      DieOutOfSync("indexed capacity vs fresh Available()");
    }
    if (!node.cordoned) ++schedulable;
  }
  if (placement_index_.NumIndexedNodes() != schedulable) {
    DieOutOfSync("tree size");
  }
  // Per-node class aggregates: counts must match a fresh scan of node.pods
  // exactly; totals within the MaybeFreeable slack (they are float sums
  // accumulated in a different order).
  for (const Node& node : nodes_) {
    std::array<uint32_t, kNumPriorityClasses> count{};
    std::array<ResourceSpec, kNumPriorityClasses> total;
    for (PodId pid : node.pods) {
      const Pod* pod = Resolve(pid);
      if (pod == nullptr) DieOutOfSync("unresolvable pod id on node");
      const size_t b = static_cast<size_t>(PriorityBucket(pod->spec.priority));
      ++count[b];
      total[b] += pod->spec.request;
    }
    for (int b = 0; b < kNumPriorityClasses; ++b) {
      if (placement_index_.PodCount(node.id, b) != count[static_cast<size_t>(b)]) {
        DieOutOfSync("aggregate pod count");
      }
      const ResourceSpec have = placement_index_.PodTotal(node.id, b);
      const ResourceSpec want = total[static_cast<size_t>(b)];
      if (std::abs(have.cpu - want.cpu) > 1e-6 ||
          std::abs(have.memory - want.memory) > 1e5) {
        DieOutOfSync("aggregate request total drift");
      }
    }
  }
  // Running-pod index: per class, it must visit exactly the running pods
  // of the slab, in creation order.
  std::vector<const Pod*> running;
  for (const auto& pod : slots_) {
    if (pod->phase == PodPhase::kRunning) running.push_back(pod.get());
  }
  std::sort(running.begin(), running.end(), [](const Pod* a, const Pod* b) {
    return a->creation_seq < b->creation_seq;
  });
  for (PriorityClass cls :
       {PriorityClass::kBestEffort, PriorityClass::kTraining,
        PriorityClass::kStream, PriorityClass::kOnline}) {
    std::vector<PodId> want;
    for (const Pod* pod : running) {
      if (pod->spec.priority == cls) want.push_back(pod->id);
    }
    std::vector<PodId> have;
    running_index_.Visit(cls, [&](const Pod& pod) { have.push_back(pod.id); });
    if (have != want) DieOutOfSync("running-pod visitation order");
  }
}

void Cluster::ReportUsage(PodId id, const ResourceSpec& usage) {
  Pod* pod = Resolve(id);
  if (pod == nullptr || pod->terminal()) return;
  if (pod->phase == PodPhase::kRunning) {
    usage_total_ += usage;
    usage_total_ -= pod->usage;
    LogDelta(ClusterCommitLog::Kind::kUsage, usage - pod->usage);
  }
  pod->usage = usage;
}

ClusterUsage Cluster::Usage() const {
  const ResourceSpec cap = TotalCapacity();
  const ResourceSpec alloc = TotalAllocated();
  const ResourceSpec used = TotalUsage();
  ClusterUsage u;
  if (cap.cpu > 0) {
    u.cpu_allocated_fraction = alloc.cpu / cap.cpu;
    u.cpu_used_fraction = used.cpu / cap.cpu;
  }
  if (cap.memory > 0) {
    u.mem_allocated_fraction = alloc.memory / cap.memory;
    u.mem_used_fraction = used.memory / cap.memory;
  }
  if (alloc.cpu > 0) u.cpu_used_of_allocated = used.cpu / alloc.cpu;
  if (alloc.memory > 0) u.mem_used_of_allocated = used.memory / alloc.memory;
  return u;
}

bool Cluster::UnderScarcity() const {
  const ResourceSpec cap = TotalCapacity();
  // No capacity: nothing can start, so there is no startup to slow down —
  // and dividing by zero below would poison the fraction with NaN.
  if (cap.cpu <= 0) return false;
  const double free_frac = 1.0 - TotalAllocated().cpu / cap.cpu;
  return free_frac < kScarcityThreshold;
}

}  // namespace dlrover
