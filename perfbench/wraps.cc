// Link-time interposers for the traced benchmark binary. The traced target
// links with -Wl,--wrap=<symbol> for every mangled-name string literal in
// this file (CMakeLists.txt collects them), so each call into
// that function from another translation unit lands in __wrap_<symbol>,
// which opens a span and forwards to __real_<symbol>. Calls inside the
// defining translation unit are resolved by the assembler and stay untimed.
//
// Each signature is written out by hand and must match the library's. If a
// later change renames a function or changes its parameters, its mangled
// name changes, the wrapper below is never called, and the weak
// __real_<symbol> reference resolves to nothing: the span just reads 0
// calls. Only a changed return type with unchanged parameters would slip
// through, so keep return types in sync when editing the libraries.
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "brain/greedy_selector.h"
#include "brain/nsga2.h"
#include "brain/plan_generator.h"
#include "cluster/cluster.h"
#include "cluster/commit_log.h"
#include "cluster/control_channel.h"
#include "cluster/node_health.h"
#include "cluster/placement_index.h"
#include "dlrm/async_trainer.h"
#include "dlrm/criteo_synth.h"
#include "dlrm/emb_store.h"
#include "dlrm/mini_dlrm.h"
#include "elastic/heartbeat.h"
#include "elastic/shard_queue.h"
#include "harness/experiment.h"
#include "harness/sharded_fleet.h"
#include "perfmodel/throughput_model.h"
#include "ps/iteration_model.h"
#include "ps/training_job.h"
#include "runtime/thread_pool.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "span_trace.h"
#include "trace/workload_gen.h"

namespace dlrover {
namespace {

using perfbench::ScopedSpan;
using perfbench::SpanIdFor;

using Candidates = std::vector<PlanCandidate>;
using Selection = std::map<uint64_t, PlanCandidate>;
using HealthActions = decltype(std::declval<NodeHealthTracker&>().Tick(0.0));
using Individuals = std::vector<Nsga2Individual>;
using PodRunning = std::function<void(Pod&)>;
using PodStopped = std::function<void(Pod&, PodStopReason)>;
using RangeBody = std::function<void(size_t, size_t)>;
using Thunk = std::function<void()>;
using Trace = std::vector<GeneratedJob>;

// Span ids are registered on first use; a function-local static keeps the
// lookup out of the timed path after that.
template <const char* const* kName, bool kKeepAll = false>
int SpanId() {
  static const int id = SpanIdFor(*kName, kKeepAll);
  return id;
}

}  // namespace

#define PB_CAT2(a, b) a##b
#define PB_CAT(a, b) PB_CAT2(a, b)

// PB_WRAP_ARG(span, keep_all, arg, symbol, ret, (params), (args)) defines
// __wrap_<symbol> with parameter list `params`, timing the forwarded call
// `__real_<symbol>(args)` as span `span` and storing `arg` with it.
#define PB_WRAP_ARG(SPAN, KEEP, ARG, SYM, RET, PARAMS, ARGS)           \
  PB_WRAP_ARG_N(__LINE__, SPAN, KEEP, ARG, SYM, RET, PARAMS, ARGS)
#define PB_WRAP_ARG_N(N, SPAN, KEEP, ARG, SYM, RET, PARAMS, ARGS)      \
  static const char* const PB_CAT(pb_name_, N) = SPAN;                  \
  RET PB_CAT(pb_real_, N) PARAMS __asm__("__real_" SYM)                 \
      __attribute__((weak));                                            \
  RET PB_CAT(pb_wrap_, N) PARAMS __asm__("__wrap_" SYM);                \
  RET PB_CAT(pb_wrap_, N) PARAMS {                                      \
    ScopedSpan span(SpanId<&PB_CAT(pb_name_, N), KEEP>(), ARG);         \
    return PB_CAT(pb_real_, N) ARGS;                                    \
  }
#define PB_WRAP(SPAN, SYM, RET, PARAMS, ARGS) \
  PB_WRAP_ARG(SPAN, false, 0.0, SYM, RET, PARAMS, ARGS)

// ---- sim: the per-shard window advance (the deadline is kept so windows
// can be regrouped offline) and the sharded engine's run. ----
PB_WRAP_ARG("sim.run_until", true, deadline, "_ZN7dlrover9Simulator8RunUntilEd",
            void, (Simulator * self, SimTime deadline), (self, deadline))
PB_WRAP_ARG("sim.sharded_run_until", true, deadline,
            "_ZN7dlrover16ShardedSimulator8RunUntilEd", void,
            (ShardedSimulator * self, SimTime deadline), (self, deadline))

// ---- cluster ----
PB_WRAP("cluster.ledger_fold",
        "_ZN7dlrover11FleetLedger4FoldERKSt6vectorIPNS_16ClusterCommitLogESaIS3_EE",
        void, (FleetLedger * self, const std::vector<ClusterCommitLog*>& logs),
        (self, logs))
PB_WRAP("cluster.create_pod",
        "_ZN7dlrover7Cluster9CreatePodENS_7PodSpecESt8functionIFvRNS_3PodEEES2_IFvS4_NS_13PodStopReasonEEE",
        PodId,
        (Cluster * self, PodSpec spec, PodRunning on_running,
         PodStopped on_stopped),
        (self, std::move(spec), std::move(on_running), std::move(on_stopped)))
PB_WRAP("cluster.best_fit", "_ZNK7dlrover14PlacementIndex7BestFitERKNS_12ResourceSpecE",
        int, (const PlacementIndex* self, const ResourceSpec& request),
        (self, request))
PB_WRAP("cluster.report_usage", "_ZN7dlrover7Cluster11ReportUsageEmRKNS_12ResourceSpecE",
        void, (Cluster * self, PodId id, const ResourceSpec& usage),
        (self, id, usage))
PB_WRAP("cluster.health", "_ZN7dlrover17NodeHealthTracker4TickEd", HealthActions,
        (NodeHealthTracker * self, SimTime now), (self, now))
PB_WRAP("cluster.health", "_ZN7dlrover17NodeHealthTracker16ObserveStragglerEjmd",
        void, (NodeHealthTracker * self, NodeId node, uint64_t source, SimTime now),
        (self, node, source, now))
PB_WRAP("cluster.health", "_ZN7dlrover17NodeHealthTracker17ObservePsSlowdownEjmd",
        void, (NodeHealthTracker * self, NodeId node, uint64_t source, SimTime now),
        (self, node, source, now))
PB_WRAP("cluster.health", "_ZN7dlrover17NodeHealthTracker17ObserveNodeMemoryEjdd",
        void, (NodeHealthTracker * self, NodeId node, double used, SimTime now),
        (self, node, used, now))
PB_WRAP("cluster.health",
        "_ZN7dlrover17NodeHealthTracker17ObservePodStoppedEjNS_13PodStopReasonEdd",
        void,
        (NodeHealthTracker * self, NodeId node, PodStopReason reason,
         Duration uptime, SimTime now),
        (self, node, reason, uptime, now))
PB_WRAP("cluster.control_send",
        "_ZN7dlrover14ControlChannel4SendENS_18ControlMessageKindEiiSt8functionIFvvEE",
        void,
        (ControlChannel * self, ControlMessageKind kind, ControlEndpoint src,
         ControlEndpoint dst, Thunk deliver),
        (self, kind, src, dst, std::move(deliver)))
PB_WRAP("cluster.control_send",
        "_ZN7dlrover14ControlChannel12SendReliableENS_18ControlMessageKindEiiSt8functionIFvvEES4_i",
        void,
        (ControlChannel * self, ControlMessageKind kind, ControlEndpoint src,
         ControlEndpoint dst, Thunk deliver, Thunk on_expire, int dst_master),
        (self, kind, src, dst, std::move(deliver), std::move(on_expire),
         dst_master))

// ---- ps ----
PB_WRAP("ps.iteration_law",
        "_ZN7dlrover16ComputeIterationERKNS_12ModelProfileERKNS_18EnvironmentProfileEmiRKNS_9JobConfigEdRKNS_12PsGroupStateE",
        IterationBreakdown,
        (const ModelProfile& profile, const EnvironmentProfile& env,
         uint64_t batch_size, int active_workers, const JobConfig& config,
         double worker_speed, const PsGroupState& ps_state),
        (profile, env, batch_size, active_workers, config, worker_speed,
         ps_state))

// ---- elastic ----
PB_WRAP("elastic.heartbeat", "_ZN7dlrover16HeartbeatMonitor9HeartbeatEmdm", void,
        (HeartbeatMonitor * self, uint64_t member, SimTime now, uint64_t offset),
        (self, member, now, offset))
PB_WRAP("elastic.detect_stragglers",
        "_ZN7dlrover16HeartbeatMonitor16DetectStragglersEdb", std::vector<uint64_t>,
        (HeartbeatMonitor * self, SimTime now, bool include_flagged),
        (self, now, include_flagged))
PB_WRAP("elastic.next_shard", "_ZN7dlrover10ShardQueue9NextShardEm",
        StatusOr<DataShard>, (ShardQueue * self, uint64_t max_batches),
        (self, max_batches))
PB_WRAP("elastic.report_completed",
        "_ZN7dlrover10ShardQueue15ReportCompletedERKNS_9DataShardE", Status,
        (ShardQueue * self, const DataShard& shard), (self, shard))
PB_WRAP("elastic.queue_wait", "_ZN7dlrover10ShardQueue16WaitNextShardForEdm",
        StatusOr<DataShard>,
        (ShardQueue * self, double timeout_seconds, uint64_t max_batches),
        (self, timeout_seconds, max_batches))

// ---- perfmodel ----
PB_WRAP("perfmodel.fit", "_ZNK7dlrover11ModelFitter3FitEv",
        StatusOr<PerfModelParams>, (const ModelFitter* self), (self))
PB_WRAP("perfmodel.predict",
        "_ZNK7dlrover15ThroughputModel17PredictThroughputERKNS_15PerfModelParamsEmRKNS_9JobConfigE",
        double,
        (const ThroughputModel* self, const PerfModelParams& params,
         uint64_t batch_size, const JobConfig& config),
        (self, params, batch_size, config))

// ---- brain ----
PB_WRAP("brain.plan",
        "_ZNK7dlrover13PlanGenerator8GenerateERKNS_15ThroughputModelERKNS_15PerfModelParamsEmRKNS_9JobConfigEdddPKNS_15PlanSearchSpaceE",
        Candidates,
        (const PlanGenerator* self, const ThroughputModel& model,
         const PerfModelParams& params, uint64_t batch_size,
         const JobConfig& current, double current_throughput,
         double remaining_samples, double extra, const PlanSearchSpace* space),
        (self, model, params, batch_size, current, current_throughput,
         remaining_samples, extra, space))
PB_WRAP("brain.nsga2", "_ZN7dlrover5Nsga23RunEv", Individuals, (Nsga2 * self),
        (self))
// The selector's result size counts the plans a planning round hands to
// jobs, for brain.plan_yield.
#define PB_SELECT_SYM \
  "_ZN7dlrover14GreedySelector6SelectERKSt6vectorINS_14JobPlanRequestESaIS2_EENS_12ResourceSpecE"
Selection pb_real_select(const std::vector<JobPlanRequest>& requests,
                         ResourceSpec capacity)
    __asm__("__real_" PB_SELECT_SYM) __attribute__((weak));
Selection pb_wrap_select(const std::vector<JobPlanRequest>& requests,
                         ResourceSpec capacity) __asm__("__wrap_" PB_SELECT_SYM);
Selection pb_wrap_select(const std::vector<JobPlanRequest>& requests,
                         ResourceSpec capacity) {
  static const char* const kName = "brain.select";
  const int id = SpanId<&kName>();
  Selection selected = [&] {
    ScopedSpan span(id);
    return pb_real_select(requests, capacity);
  }();
  perfbench::CountEvents(id, selected.size());
  return selected;
}

// ---- runtime ----
PB_WRAP("runtime.parallel_for",
        "_ZN7dlrover10ThreadPool11ParallelForEmmmRKSt8functionIFvmmEE", void,
        (ThreadPool * self, size_t begin, size_t end, size_t grain,
         const RangeBody& body),
        (self, begin, end, grain, body))

// ---- master: the TrainingJob policy entry points JobMaster drives ----
PB_WRAP("master.policy", "_ZN7dlrover11TrainingJob17ReapSilentWorkersEv", int,
        (TrainingJob * self), (self))
PB_WRAP("master.policy", "_ZN7dlrover11TrainingJob20EvacuateDrainingPodsEv", int,
        (TrainingJob * self), (self))
PB_WRAP("master.policy", "_ZN7dlrover11TrainingJob18MitigateStragglersEv", int,
        (TrainingJob * self), (self))
PB_WRAP("master.policy", "_ZN7dlrover11TrainingJob15MaybePreventOomEv", bool,
        (TrainingJob * self), (self))

// ---- dlrm ----
PB_WRAP("dlrm.pull", "_ZNK7dlrover8MiniDlrm9PullBatchEPNS_13DlrmBatchWorkE", void,
        (const MiniDlrm* self, DlrmBatchWork* work), (self, work))
PB_WRAP("dlrm.compute", "_ZNK7dlrover8MiniDlrm12ComputeBatchEPNS_13DlrmBatchWorkE",
        double, (const MiniDlrm* self, DlrmBatchWork* work), (self, work))
PB_WRAP("dlrm.push", "_ZN7dlrover8MiniDlrm9PushBatchEPNS_13DlrmBatchWorkEd", void,
        (MiniDlrm * self, DlrmBatchWork* work, double learning_rate),
        (self, work, learning_rate))
PB_WRAP("dlrm.gather",
        "_ZNK7dlrover8EmbStore10GatherRowsEPKmmPdS3_PNS0_12BatchScratchE", void,
        (const EmbStore* self, const uint64_t* keys, size_t n, double* rows_out,
         double* wide_out, EmbStore::BatchScratch* scratch),
        (self, keys, n, rows_out, wide_out, scratch))
PB_WRAP("dlrm.scatter",
        "_ZN7dlrover8EmbStore12ScatterApplyEPKmmPKdS4_dPNS0_12BatchScratchE", void,
        (EmbStore * self, const uint64_t* keys, size_t n, const double* row_grads,
         const double* wide_grads, double learning_rate,
         EmbStore::BatchScratch* scratch),
        (self, keys, n, row_grads, wide_grads, learning_rate, scratch))
PB_WRAP("dlrm.data", "_ZNK7dlrover11CriteoSynth9FillBatchEmmPNS_11CriteoBatchE",
        void, (const CriteoSynth* self, uint64_t start, uint64_t count,
               CriteoBatch* out),
        (self, start, count, out))
PB_WRAP("dlrm.train", "_ZN7dlrover14AsyncPsTrainer3RunEv", TrainResult,
        (AsyncPsTrainer * self), (self))

// ---- harness / trace ----
PB_WRAP("harness.run_fleet",
        "_ZN7dlrover15RunFleetShardedERKNS_13FleetScenarioERKNS_19ShardedFleetOptionsE",
        ShardedFleetResult,
        (const FleetScenario& scenario, const ShardedFleetOptions& options),
        (scenario, options))
PB_WRAP("harness.fleet_setup",
        "_ZN7dlrover15FleetSimulationC1EPNS_9SimulatorERKNS_13FleetScenarioESt6vectorINS_12GeneratedJobESaIS7_EE",
        void,
        (FleetSimulation * self, Simulator* sim, const FleetScenario& scenario,
         Trace trace),
        (self, sim, scenario, std::move(trace)))
PB_WRAP("harness.collect", "_ZN7dlrover15FleetSimulation7CollectEv", FleetResult,
        (FleetSimulation * self), (self))
PB_WRAP("trace.generate", "_ZNK7dlrover17WorkloadGenerator8GenerateEv", Trace,
        (const WorkloadGenerator* self), (self))

}  // namespace dlrover
