// Single-job goldens (ctest label `golden`): the RunSingleJob scenarios of
// the Fig 7, Fig 9/10, Fig 12 and Fig 13 benches, one case per scheduler
// kind each bench uses, each pinned to an FNV-1a digest (fnv1a.h) of the
// whole result: every JobStats field, the final state and config, the
// profiling history, the JCT, the recovery time and the executed event
// count. The cases run through seamless migration, stop-and-restart, worker
// scaling and straggler mitigation, so a change to how a job moves between
// deployments that is meant to be invisible keeps every literal.
//
// A literal moves only when a single-job outcome moves; regenerating one is
// its own reviewed step, with the old and new values recorded in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "fnv1a.h"
#include "harness/experiment.h"

namespace dlrover {
namespace {

enum class Figure : int { kFig7, kFig9Warm, kFig10Cold, kFig12HotPs, kFig13 };

struct GoldenCase {
  const char* name;
  Figure figure;
  SchedulerKind scheduler;
  const char* digest;
};

// The scenario each bench builds for `scheduler`, at the bench's first
// model (Wide&Deep) and first seed.
SingleJobScenario ScenarioFor(const GoldenCase& c) {
  SingleJobScenario s;
  s.scheduler = c.scheduler;
  s.model = ModelKind::kWideDeep;
  s.total_steps = 200000;
  switch (c.figure) {
    case Figure::kFig7:
      s.seed = 3;
      break;
    case Figure::kFig9Warm:
      s.seed = 5;
      break;
    case Figure::kFig10Cold:
      s.warm_start = false;
      s.seed = 5;
      break;
    case Figure::kFig12HotPs:
    case Figure::kFig13:
      s.seed = 9;
      s.injection.kind = c.figure == Figure::kFig12HotPs
                             ? ScenarioInjection::Kind::kHotPs
                             : ScenarioInjection::Kind::kWorkerStraggler;
      s.injection.at = Minutes(10);
      s.injection.speed = 0.03;
      s.initial = WellTunedConfig(s.model);
      break;
  }
  return s;
}

void AddConfig(Fnv1a& h, const JobConfig& c) {
  h.Add(static_cast<uint64_t>(c.num_workers));
  h.Add(static_cast<uint64_t>(c.num_ps));
  h.Add(c.worker_cpu);
  h.Add(c.ps_cpu);
  h.Add(c.worker_memory);
  h.Add(c.ps_memory);
}

std::string Digest(const SingleJobResult& r) {
  Fnv1a h;
  const JobStats& s = r.stats;
  for (double v : {s.submit_time, s.first_training_time, s.finish_time,
                   s.downtime_checkpoint, s.downtime_waiting_pods,
                   s.downtime_repartition}) {
    h.Add(v);
  }
  for (int v : {s.worker_failures, s.ps_failures, s.oom_events,
                s.full_restarts, s.migrations, s.scale_operations,
                s.stragglers_mitigated, s.drain_migrations, s.drain_fallbacks,
                s.plans_fenced, s.stale_plan_applies,
                s.shard_reports_rejected, s.shard_reports_expired,
                s.ps_slowdown_reports}) {
    h.Add(static_cast<uint64_t>(v));
  }
  h.Add(s.fail_reason);
  h.Add(static_cast<uint64_t>(r.final_state));
  AddConfig(h, r.final_config);
  h.Add(static_cast<uint64_t>(r.history.size()));
  for (const ThroughputSample& t : r.history) {
    h.Add(t.time);
    AddConfig(h, t.config);
    h.Add(static_cast<uint64_t>(t.active_workers));
    h.Add(t.samples_per_sec);
    h.Add(t.observed_iter_time);
    h.Add(t.batches_done);
    h.Add(t.max_ps_memory);
    h.Add(t.worker_cpu_util);
    h.Add(t.ps_cpu_util);
    h.Add(t.worker_mem_util);
    h.Add(t.ps_mem_util);
  }
  h.Add(r.jct);
  h.Add(r.recovery_time);
  h.Add(r.executed_events);
  return h.Hex();
}

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

class SingleJobGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SingleJobGoldenTest, DigestMatchesRecorded) {
  const GoldenCase& c = GetParam();
  const SingleJobResult result = RunSingleJob(ScenarioFor(c));
  EXPECT_EQ(Digest(result), c.digest) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Figures, SingleJobGoldenTest,
    ::testing::Values(
        GoldenCase{"fig7_manual_tuned", Figure::kFig7,
                   SchedulerKind::kManualTuned, "7307159b92151ed8"},
        GoldenCase{"fig7_dlrover", Figure::kFig7,
                   SchedulerKind::kDlrover, "6d4aed157081df80"},
        GoldenCase{"fig7_es", Figure::kFig7,
                   SchedulerKind::kEs, "63edc437a03a6575"},
        GoldenCase{"fig7_optimus", Figure::kFig7,
                   SchedulerKind::kOptimus, "9a7df859c96df171"},
        GoldenCase{"fig9_dlrover_warm", Figure::kFig9Warm,
                   SchedulerKind::kDlrover, "6c4d376fea16fc3b"},
        GoldenCase{"fig10_dlrover_cold", Figure::kFig10Cold,
                   SchedulerKind::kDlrover, "11cd88472f54280c"},
        GoldenCase{"fig10_es_cold", Figure::kFig10Cold,
                   SchedulerKind::kEs, "d5857abf30a2a8d0"},
        GoldenCase{"fig10_optimus_cold", Figure::kFig10Cold,
                   SchedulerKind::kOptimus, "112be171c7c1330e"},
        GoldenCase{"fig12_no_intervention", Figure::kFig12HotPs,
                   SchedulerKind::kNoIntervention, "08cb94070fdcffed"},
        GoldenCase{"fig12_traditional", Figure::kFig12HotPs,
                   SchedulerKind::kTraditional, "20a2b0db0367e169"},
        GoldenCase{"fig12_dlrover", Figure::kFig12HotPs,
                   SchedulerKind::kDlrover, "672142aede2187e7"},
        GoldenCase{"fig13_no_intervention", Figure::kFig13,
                   SchedulerKind::kNoIntervention, "cc408bd20fce796a"},
        GoldenCase{"fig13_traditional", Figure::kFig13,
                   SchedulerKind::kTraditional, "16c3e4d5947221df"},
        GoldenCase{"fig13_dlrover", Figure::kFig13,
                   SchedulerKind::kDlrover, "75fadc918fee4a17"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dlrover
