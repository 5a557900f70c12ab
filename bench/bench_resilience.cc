// Resilience scorecard: labeled grey-fault campaigns replayed against the
// self-healing control plane, on and off.
//
// Each campaign seeds the failure injector's node-scoped grey faults (flaky,
// degraded, leaking, crash-looping nodes) over a production-like fleet and
// runs three arms:
//
//   clean:        baseline pod-level instability only, no grey faults —
//                 the goodput ceiling the faulted arms are scored against.
//   unprotected:  grey faults on, node-health detection off. Jobs see raw
//                 crash storms, silent slowdowns, and OOM creep.
//   protected:    same faults, ClusterOptions::enable_node_health on —
//                 evidence-based detection, cordon/drain, brain blacklist,
//                 make-before-break migration.
//
// The injector's ground-truth audit log is matched against the detector's
// cordon events to score detection precision/recall, time-to-detect, MTTR
// (fault onset to the node's return to service), and the false-cordon rate.
// Fleet goodput (committed batches) gives the retention comparison, and job
// time (the sum of job completion times, an unfinished job charged up to the
// horizon) gives the loss comparison: the faults' cost to an arm is its job
// time in excess of the clean arm's.
//
// A second, partition campaign grades the control-plane resilience layer:
// heartbeats, shard reports, and scaling plans ride a lossy ControlChannel
// (drops, duplicates, reordering) under injected node partitions, cell
// partitions, and job-master crashes. Its three arms:
//
//   clean:        channel disabled — the direct-call control plane.
//   unprotected:  channel + faults on; retries, fencing, and failover OFF.
//   protected:    same faults; retries + epoch/sequence fencing + master
//                 failover ON.
//
// Scored on goodput retention, zero stale-plan applies, exactly-once shard
// accounting (no job overshoots its step budget), fencing actually
// exercised, and crash/restart balance. Written to BENCH_resilience.json.
// `gate` mode (ctest label perf-smoke/resilience) runs one campaign of each
// and fails unless recall >= 0.9, false-cordon rate <= 0.05, the faults cost
// the unprotected grey arm >= 1.5x the excess job time they cost the
// protected arm, and the partition gate below holds.
//
// Usage: bench_resilience [gate]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/reporting.h"

namespace dlrover {
namespace {

// Detection credit window past fault expiry: evidence decays over the EWMA
// half-life, so a cordon shortly after the fault ends is still the detector
// doing its job, not a false positive.
constexpr Duration kDetectSlack = Minutes(10);

// A grey fault only counts as ground truth once it manifested at least this
// many symptoms. The detector is deliberately calibrated not to cordon on
// one or two pod events (that is exactly the background failure process, and
// reacting to it is what the false-cordon metric punishes), so a fault whose
// entire observable footprint stays below the noise floor is undetectable by
// construction, not missed.
constexpr uint64_t kMinTruthSymptoms = 3;

struct Campaign {
  uint64_t seed = 1;
  double flaky = 1.0;
  double degraded = 1.0;
  double leak = 0.9;
  double crashloop = 0.75;
};

FleetScenario BaseScenario(uint64_t seed) {
  FleetScenario scenario;
  scenario.seed = seed * 31 + 7;
  scenario.workload.num_jobs = 48;
  scenario.workload.arrival_span = Hours(8);
  scenario.workload.seed = seed * 131 + 9;
  scenario.horizon = Hours(14);
  scenario.failures.daily_straggler_rate = 0.01;
  // Background load slows whole nodes at once — from the detector's seat
  // that IS node-level degradation, but it has no ground-truth label, so a
  // labeled campaign turns it off to keep the scorecard honest.
  scenario.enable_background = false;
  return scenario;
}

void ArmFaults(FleetScenario* scenario, const Campaign& c) {
  scenario->failures.daily_node_flaky_rate = c.flaky;
  scenario->failures.daily_node_degraded_rate = c.degraded;
  scenario->failures.daily_node_leak_rate = c.leak;
  scenario->failures.daily_node_crashloop_rate = c.crashloop;
}

struct ArmResult {
  std::string arm;
  uint64_t seed = 0;
  uint64_t goodput_batches = 0;
  Duration job_time = 0.0;  // summed JCT; unfinished jobs up to the horizon
  int completed = 0;
  int jobs = 0;
  uint64_t grey_faults = 0;
  uint64_t cordons = 0;
  uint64_t uncordons = 0;
  int drain_migrations = 0;
  int drain_fallbacks = 0;
  int seamless_aborts = 0;
  FleetResult fleet;
};

ArmResult RunArm(const std::string& arm, uint64_t seed,
                 const FleetScenario& scenario) {
  ArmResult out;
  out.arm = arm;
  out.seed = seed;
  out.fleet = RunFleet(scenario);
  out.jobs = static_cast<int>(out.fleet.jobs.size());
  out.completed = out.fleet.Completed();
  for (const FleetJobOutcome& job : out.fleet.jobs) {
    out.goodput_batches += job.batches_done;
    out.job_time += job.jct;
    out.drain_migrations += job.stats.drain_migrations;
    out.drain_fallbacks += job.stats.drain_fallbacks;
    out.seamless_aborts += job.stats.seamless_aborts;
  }
  for (const FaultRecord& f : out.fleet.fault_log) {
    if (f.kind >= FaultKind::kFlakyNode && f.kind <= FaultKind::kCrashLoop) {
      ++out.grey_faults;
    }
  }
  out.cordons = out.fleet.nodes_cordoned;
  out.uncordons = out.fleet.nodes_uncordoned;
  return out;
}

struct DetectionScore {
  int truth = 0;      // grey faults that manifested symptoms
  int detected = 0;   // matched by a cordon in the credit window
  int cordons = 0;    // total cordon events
  int false_cordons = 0;
  double recall = 0.0;
  double precision = 0.0;
  double false_rate = 0.0;
  double ttd_mean = 0.0;   // onset -> cordon, detected faults
  double mttr_mean = 0.0;  // onset -> uncordon (node back in service)
  // Indexed by FaultKind - kFlakyNode.
  int truth_by_kind[4] = {0, 0, 0, 0};
  int detected_by_kind[4] = {0, 0, 0, 0};
};

DetectionScore ScoreDetection(const FleetResult& fleet, Duration horizon) {
  DetectionScore score;
  struct Truth {
    NodeId node;
    SimTime start;
    SimTime end;
    int kind;
  };
  std::vector<Truth> truths;
  for (const FaultRecord& f : fleet.fault_log) {
    if (f.kind < FaultKind::kFlakyNode || f.kind > FaultKind::kCrashLoop ||
        f.symptoms < kMinTruthSymptoms) {
      continue;
    }
    truths.push_back({static_cast<NodeId>(f.target), f.time,
                      f.time + f.duration + kDetectSlack,
                      static_cast<int>(f.kind) -
                          static_cast<int>(FaultKind::kFlakyNode)});
  }
  score.truth = static_cast<int>(truths.size());

  double ttd_sum = 0.0, mttr_sum = 0.0;
  int mttr_n = 0;
  std::vector<uint8_t> cordon_matched;
  std::vector<const NodeHealthEvent*> cordon_events;
  for (const NodeHealthEvent& e : fleet.health_log) {
    if (e.to == NodeHealthState::kCordoned) cordon_events.push_back(&e);
  }
  cordon_matched.assign(cordon_events.size(), 0);
  score.cordons = static_cast<int>(cordon_events.size());

  for (const Truth& t : truths) {
    ++score.truth_by_kind[t.kind];
    const NodeHealthEvent* first = nullptr;
    for (size_t i = 0; i < cordon_events.size(); ++i) {
      const NodeHealthEvent* e = cordon_events[i];
      if (e->node != t.node || e->time < t.start || e->time > t.end) continue;
      cordon_matched[i] = 1;
      if (first == nullptr || e->time < first->time) first = e;
    }
    if (first == nullptr) continue;
    ++score.detected;
    ++score.detected_by_kind[t.kind];
    ttd_sum += first->time - t.start;
    // Return to service: the first uncordon on the node after detection;
    // still-cordoned-at-horizon counts the full remaining window.
    SimTime back = horizon;
    for (const NodeHealthEvent& e : fleet.health_log) {
      if (e.node == t.node && e.time > first->time &&
          e.from == NodeHealthState::kCordoned) {
        back = e.time;
        break;
      }
    }
    mttr_sum += back - t.start;
    ++mttr_n;
  }
  for (size_t i = 0; i < cordon_matched.size(); ++i) {
    if (!cordon_matched[i]) ++score.false_cordons;
  }
  score.recall = score.truth > 0
                     ? static_cast<double>(score.detected) / score.truth
                     : 1.0;
  score.precision =
      score.cordons > 0
          ? 1.0 - static_cast<double>(score.false_cordons) / score.cordons
          : 1.0;
  score.false_rate = 1.0 - score.precision;
  score.ttd_mean = score.detected > 0 ? ttd_sum / score.detected : 0.0;
  score.mttr_mean = mttr_n > 0 ? mttr_sum / mttr_n : 0.0;
  return score;
}

// ---- Partition campaign (control-plane resilience) ----

/// Arm kinds for the partition campaign.
enum class ControlArm : int { kClean = 0, kUnprotected = 1, kProtected = 2 };

FleetScenario PartitionScenario(uint64_t seed, ControlArm arm) {
  FleetScenario scenario = BaseScenario(seed);
  if (arm == ControlArm::kClean) return scenario;  // channel disabled
  scenario.control.enabled = true;
  // Ambient control-plane weather, independent of the injected partitions:
  // a few percent of messages dropped, duplicated, or reordered.
  scenario.control.drop_prob = 0.02;
  scenario.control.duplicate_prob = 0.05;
  scenario.control.reorder_prob = 0.05;
  // Injected control faults: node partitions sever worker shard reports,
  // cell partitions sever brain plans, master crashes exercise failover.
  scenario.failures.daily_node_partition_rate = 1.5;
  scenario.failures.daily_cell_partition_rate = 2.0;
  scenario.failures.daily_master_crash_rate = 0.3;
  if (arm == ControlArm::kUnprotected) {
    scenario.control.retries_enabled = false;
    scenario.control.fencing_enabled = false;
    scenario.control.failover_enabled = false;
  }
  return scenario;
}

struct PartitionScore {
  uint64_t seed = 0;
  double retention_unprot = 1.0;
  double retention_prot = 1.0;
  uint64_t control_faults = 0;
  uint64_t stale_plan_applies_prot = 0;
  uint64_t stale_plan_applies_unprot = 0;
  uint64_t plans_fenced_prot = 0;  // job fences + master gates + epoch fences
  uint64_t retries = 0;
  uint64_t reports_expired = 0;
  uint64_t reports_rejected = 0;
  uint64_t master_crashes = 0;
  uint64_t master_restarts = 0;
  /// Jobs whose committed batches exceed their step budget — the queue's
  /// exactly-once guarantee failing under duplicated delivery. Must be 0.
  int exactly_once_violations = 0;
};

int CountOvershoot(const FleetResult& fleet) {
  int violations = 0;
  for (const FleetJobOutcome& job : fleet.jobs) {
    if (job.batches_done > job.total_steps) ++violations;
  }
  return violations;
}

PartitionScore ScorePartition(uint64_t seed, const ArmResult& clean,
                              const ArmResult& unprot, const ArmResult& prot) {
  PartitionScore score;
  score.seed = seed;
  const double clean_gp = static_cast<double>(clean.goodput_batches);
  score.retention_unprot =
      clean_gp > 0.0
          ? static_cast<double>(unprot.goodput_batches) / clean_gp
          : 1.0;
  score.retention_prot =
      clean_gp > 0.0 ? static_cast<double>(prot.goodput_batches) / clean_gp
                     : 1.0;
  score.control_faults = prot.fleet.control_faults_injected;
  score.stale_plan_applies_prot = prot.fleet.stale_plan_applies +
                                  prot.fleet.control_stats.stale_plan_applies;
  score.stale_plan_applies_unprot =
      unprot.fleet.stale_plan_applies +
      unprot.fleet.control_stats.stale_plan_applies;
  score.plans_fenced_prot = prot.fleet.plans_fenced +
                            prot.fleet.control_stats.plans_fenced_stale +
                            prot.fleet.control_stats.epoch_fenced;
  score.retries = prot.fleet.control_stats.retries;
  score.reports_expired = prot.fleet.shard_reports_expired;
  score.reports_rejected = prot.fleet.shard_reports_rejected;
  score.master_crashes = prot.fleet.control_stats.master_crashes;
  score.master_restarts = prot.fleet.control_stats.master_restarts;
  score.exactly_once_violations =
      CountOvershoot(prot.fleet) + CountOvershoot(unprot.fleet);
  return score;
}

int Run(bool gate) {
  PrintBanner(gate ? "resilience: detection & goodput gate"
                   : "resilience: grey-fault campaigns, self-healing on/off");
  const std::vector<uint64_t> seeds = gate ? std::vector<uint64_t>{1}
                                           : std::vector<uint64_t>{1, 2};

  std::vector<ArmResult> runs;
  std::vector<DetectionScore> scores;
  double recovery_ratio_min = 1.0e18;
  double retention_prot_min = 1.0;
  for (uint64_t seed : seeds) {
    Campaign campaign;
    campaign.seed = seed;
    const FleetScenario clean_scenario = BaseScenario(seed);

    FleetScenario faulted = clean_scenario;
    ArmFaults(&faulted, campaign);

    FleetScenario protected_scenario = faulted;
    protected_scenario.cluster.enable_node_health = true;

    std::printf("campaign seed %llu: running 3 arms...\n",
                static_cast<unsigned long long>(seed));
    std::fflush(stdout);
    ArmResult clean = RunArm("clean", seed, clean_scenario);
    ArmResult unprot = RunArm("unprotected", seed, faulted);
    ArmResult prot = RunArm("protected", seed, protected_scenario);

    DetectionScore score =
        ScoreDetection(prot.fleet, clean_scenario.horizon);
    scores.push_back(score);

    const double clean_gp = static_cast<double>(clean.goodput_batches);
    // How much of the time the faults cost does self-healing save? Every
    // arm usually finishes every job by the horizon, so committed batches
    // saturate and cannot tell the arms apart; job time keeps counting how
    // long the faults held each job up. Ratio of losses: > 1 means the
    // protected arm lost less.
    const double lost_unprot = unprot.job_time - clean.job_time;
    const double lost_prot = prot.job_time - clean.job_time;
    const double ratio = lost_unprot / std::max(lost_prot, Minutes(1));
    recovery_ratio_min = std::min(recovery_ratio_min, ratio);
    retention_prot_min = std::min(
        retention_prot_min,
        clean_gp > 0.0 ? static_cast<double>(prot.goodput_batches) / clean_gp
                       : 1.0);

    runs.push_back(std::move(clean));
    runs.push_back(std::move(unprot));
    runs.push_back(std::move(prot));
  }

  // ---- Partition campaign: the control plane itself under attack ----
  std::vector<ArmResult> partition_runs;
  std::vector<PartitionScore> partition_scores;
  for (uint64_t seed : seeds) {
    std::printf("partition campaign seed %llu: running 3 arms...\n",
                static_cast<unsigned long long>(seed));
    std::fflush(stdout);
    ArmResult clean = RunArm(
        "clean", seed, PartitionScenario(seed, ControlArm::kClean));
    ArmResult unprot = RunArm(
        "unprotected", seed, PartitionScenario(seed, ControlArm::kUnprotected));
    ArmResult prot = RunArm(
        "protected", seed, PartitionScenario(seed, ControlArm::kProtected));
    partition_scores.push_back(ScorePartition(seed, clean, unprot, prot));
    partition_runs.push_back(std::move(clean));
    partition_runs.push_back(std::move(unprot));
    partition_runs.push_back(std::move(prot));
  }

  TablePrinter table({"seed", "arm", "goodput", "retention", "job-hours",
                      "completed", "grey faults", "cordons", "drains",
                      "fallbacks"});
  for (size_t i = 0; i < runs.size(); i += 3) {
    const double clean_gp = static_cast<double>(runs[i].goodput_batches);
    for (size_t k = 0; k < 3; ++k) {
      const ArmResult& r = runs[i + k];
      table.AddRow(
          {StrFormat("%llu", static_cast<unsigned long long>(r.seed)), r.arm,
           StrFormat("%llu", static_cast<unsigned long long>(
                                 r.goodput_batches)),
           FormatPercent(clean_gp > 0.0
                             ? static_cast<double>(r.goodput_batches) /
                                   clean_gp
                             : 1.0),
           StrFormat("%.2f", r.job_time / Hours(1)),
           StrFormat("%d/%d", r.completed, r.jobs),
           StrFormat("%llu", static_cast<unsigned long long>(r.grey_faults)),
           StrFormat("%llu", static_cast<unsigned long long>(r.cordons)),
           StrFormat("%d", r.drain_migrations),
           StrFormat("%d", r.drain_fallbacks)});
    }
  }
  table.Print();

  double recall_min = 1.0, false_rate_max = 0.0;
  double ttd_sum = 0.0, mttr_sum = 0.0;
  for (const DetectionScore& s : scores) {
    recall_min = std::min(recall_min, s.recall);
    false_rate_max = std::max(false_rate_max, s.false_rate);
    ttd_sum += s.ttd_mean;
    mttr_sum += s.mttr_mean;
    std::printf(
        "detection: %d/%d grey faults cordoned (recall %s), %d/%d cordons "
        "false (rate %s), mean time-to-detect %s, mean MTTR %s\n",
        s.detected, s.truth, FormatPercent(s.recall).c_str(), s.false_cordons,
        s.cordons, FormatPercent(s.false_rate).c_str(),
        FormatDuration(s.ttd_mean).c_str(),
        FormatDuration(s.mttr_mean).c_str());
    std::printf(
        "  by kind: flaky %d/%d, degraded %d/%d, leak %d/%d, crashloop "
        "%d/%d\n",
        s.detected_by_kind[0], s.truth_by_kind[0], s.detected_by_kind[1],
        s.truth_by_kind[1], s.detected_by_kind[2], s.truth_by_kind[2],
        s.detected_by_kind[3], s.truth_by_kind[3]);
  }
  std::printf(
      "goodput: protected arm retains >= %s of clean; job-time loss ratio "
      "unprotected/protected %.2fx\n",
      FormatPercent(retention_prot_min).c_str(), recovery_ratio_min);

  TablePrinter ptable({"seed", "faults", "ret unprot", "ret prot", "stale",
                       "fenced", "retries", "expired", "rejected",
                       "crash/restart", "overshoot"});
  double partition_retention_min = 1.0;
  uint64_t partition_stale_total = 0;
  uint64_t partition_fenced_total = 0;
  int partition_overshoot_total = 0;
  bool failover_balanced = true;
  for (const PartitionScore& s : partition_scores) {
    partition_retention_min =
        std::min(partition_retention_min, s.retention_prot);
    partition_stale_total += s.stale_plan_applies_prot;
    partition_fenced_total += s.plans_fenced_prot;
    partition_overshoot_total += s.exactly_once_violations;
    failover_balanced =
        failover_balanced && s.master_crashes == s.master_restarts;
    ptable.AddRow(
        {StrFormat("%llu", static_cast<unsigned long long>(s.seed)),
         StrFormat("%llu", static_cast<unsigned long long>(s.control_faults)),
         FormatPercent(s.retention_unprot), FormatPercent(s.retention_prot),
         StrFormat("%llu",
                   static_cast<unsigned long long>(s.stale_plan_applies_prot)),
         StrFormat("%llu",
                   static_cast<unsigned long long>(s.plans_fenced_prot)),
         StrFormat("%llu", static_cast<unsigned long long>(s.retries)),
         StrFormat("%llu", static_cast<unsigned long long>(s.reports_expired)),
         StrFormat("%llu",
                   static_cast<unsigned long long>(s.reports_rejected)),
         StrFormat("%llu/%llu",
                   static_cast<unsigned long long>(s.master_crashes),
                   static_cast<unsigned long long>(s.master_restarts)),
         StrFormat("%d", s.exactly_once_violations)});
  }
  std::printf("partition campaign (channel drops/dups/reorder + node & cell "
              "partitions + master crashes):\n");
  ptable.Print();

  FILE* json = OpenBenchJson("BENCH_resilience.json", "resilience");
  if (json != nullptr) {
    std::fprintf(json, "  \"gate_mode\": %s,\n", gate ? "true" : "false");
    std::fprintf(json, "  \"recall_min\": %.4f,\n", recall_min);
    std::fprintf(json, "  \"false_cordon_rate_max\": %.4f,\n", false_rate_max);
    std::fprintf(json, "  \"ttd_mean_s\": %.1f,\n",
                 ttd_sum / static_cast<double>(scores.size()));
    std::fprintf(json, "  \"mttr_mean_s\": %.1f,\n",
                 mttr_sum / static_cast<double>(scores.size()));
    std::fprintf(json, "  \"goodput_retention_protected_min\": %.4f,\n",
                 retention_prot_min);
    std::fprintf(json, "  \"job_time_loss_ratio_min\": %.3f,\n",
                 recovery_ratio_min);
    std::fprintf(json, "  \"arms\": [\n");
    for (size_t i = 0; i < runs.size(); ++i) {
      const ArmResult& r = runs[i];
      std::fprintf(
          json,
          "    {\"seed\": %llu, \"arm\": \"%s\", \"goodput_batches\": %llu, "
          "\"job_hours\": %.4f, \"completed\": %d, \"jobs\": %d, "
          "\"grey_faults\": %llu, \"cordons\": %llu, \"uncordons\": %llu, "
          "\"drain_migrations\": %d, \"drain_fallbacks\": %d, "
          "\"seamless_aborts\": %d}%s\n",
          static_cast<unsigned long long>(r.seed), r.arm.c_str(),
          static_cast<unsigned long long>(r.goodput_batches),
          r.job_time / Hours(1), r.completed, r.jobs,
          static_cast<unsigned long long>(r.grey_faults),
          static_cast<unsigned long long>(r.cordons),
          static_cast<unsigned long long>(r.uncordons), r.drain_migrations,
          r.drain_fallbacks, r.seamless_aborts,
          i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"detection\": [\n");
    for (size_t i = 0; i < scores.size(); ++i) {
      const DetectionScore& s = scores[i];
      std::fprintf(json,
                   "    {\"truth\": %d, \"detected\": %d, \"cordons\": %d, "
                   "\"false_cordons\": %d, \"recall\": %.4f, \"precision\": "
                   "%.4f, \"ttd_mean_s\": %.1f, \"mttr_mean_s\": %.1f}%s\n",
                   s.truth, s.detected, s.cordons, s.false_cordons, s.recall,
                   s.precision, s.ttd_mean, s.mttr_mean,
                   i + 1 < scores.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"partition_retention_protected_min\": %.4f,\n",
                 partition_retention_min);
    std::fprintf(json, "  \"partition_stale_plan_applies_protected\": %llu,\n",
                 static_cast<unsigned long long>(partition_stale_total));
    std::fprintf(json, "  \"partition_plans_fenced\": %llu,\n",
                 static_cast<unsigned long long>(partition_fenced_total));
    std::fprintf(json, "  \"partition_exactly_once_violations\": %d,\n",
                 partition_overshoot_total);
    std::fprintf(json, "  \"partition_failover_balanced\": %s,\n",
                 failover_balanced ? "true" : "false");
    std::fprintf(json, "  \"partition\": [\n");
    for (size_t i = 0; i < partition_scores.size(); ++i) {
      const PartitionScore& s = partition_scores[i];
      std::fprintf(
          json,
          "    {\"seed\": %llu, \"control_faults\": %llu, "
          "\"retention_unprotected\": %.4f, \"retention_protected\": %.4f, "
          "\"stale_plan_applies_protected\": %llu, "
          "\"stale_plan_applies_unprotected\": %llu, \"plans_fenced\": %llu, "
          "\"retries\": %llu, \"reports_expired\": %llu, "
          "\"reports_rejected\": %llu, \"master_crashes\": %llu, "
          "\"master_restarts\": %llu, \"exactly_once_violations\": %d}%s\n",
          static_cast<unsigned long long>(s.seed),
          static_cast<unsigned long long>(s.control_faults),
          s.retention_unprot, s.retention_prot,
          static_cast<unsigned long long>(s.stale_plan_applies_prot),
          static_cast<unsigned long long>(s.stale_plan_applies_unprot),
          static_cast<unsigned long long>(s.plans_fenced_prot),
          static_cast<unsigned long long>(s.retries),
          static_cast<unsigned long long>(s.reports_expired),
          static_cast<unsigned long long>(s.reports_rejected),
          static_cast<unsigned long long>(s.master_crashes),
          static_cast<unsigned long long>(s.master_restarts),
          s.exactly_once_violations,
          i + 1 < partition_scores.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"partition_arms\": [\n");
    for (size_t i = 0; i < partition_runs.size(); ++i) {
      const ArmResult& r = partition_runs[i];
      std::fprintf(json,
                   "    {\"seed\": %llu, \"arm\": \"%s\", "
                   "\"seamless_aborts\": %d}%s\n",
                   static_cast<unsigned long long>(r.seed), r.arm.c_str(),
                   r.seamless_aborts, i + 1 < partition_runs.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_resilience.json\n");
  }

  // Scorecard gate: detection must be sharp (recall >= 0.9, false-cordon
  // rate <= 0.05) and self-healing must save >= 1.5x: the faults cost the
  // unprotected arm at least 1.5 times the excess job time they cost the
  // protected arm.
  const bool grey_ok = recall_min >= 0.90 && false_rate_max <= 0.05 &&
                       recovery_ratio_min >= 1.5;
  // Partition gate: with retries + fencing + failover on, the protected arm
  // must hold >= 90% of the clean arm's goodput, never apply a stale or
  // duplicate plan, keep shard accounting exactly-once, actually exercise
  // its fences, and restart every crashed master.
  const bool partition_ok =
      partition_retention_min >= 0.90 && partition_stale_total == 0 &&
      partition_overshoot_total == 0 && partition_fenced_total > 0 &&
      failover_balanced;
  std::printf(
      "resilience gate (recall >= 0.90, false-cordon <= 0.05, loss ratio >= "
      "1.5): %s\n",
      grey_ok ? "PASS" : "FAIL");
  std::printf(
      "partition gate (retention >= 0.90, stale applies == 0, exactly-once "
      "violations == 0, fences > 0, crashes == restarts): %s\n",
      partition_ok ? "PASS" : "FAIL");
  return grey_ok && partition_ok ? 0 : 1;
}

}  // namespace
}  // namespace dlrover

int main(int argc, char** argv) {
  const bool gate = argc > 1 && std::strcmp(argv[1], "gate") == 0;
  return dlrover::Run(gate);
}
