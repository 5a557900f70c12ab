#include "brain/brain.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "brain/greedy_selector.h"
#include "brain/objectives.h"
#include "brain/plan_generator.h"
#include "brain/warm_start.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "harness/experiment.h"
#include "ps/iteration_model.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

JobMetadata Meta(ModelKind model, const std::string& user,
                 uint64_t steps = 200000, Bytes bytes = GiB(10)) {
  JobMetadata meta;
  meta.user = user;
  meta.model = model;
  meta.total_steps = steps;
  meta.declared_model_bytes = bytes;
  return meta;
}

TEST(ConfigDbTest, SimilarityOrdersSensibly) {
  const JobMetadata query = Meta(ModelKind::kWideDeep, "alice");
  const JobMetadata same = Meta(ModelKind::kWideDeep, "alice");
  const JobMetadata other_user = Meta(ModelKind::kWideDeep, "bob");
  const JobMetadata other_model = Meta(ModelKind::kDcn, "alice");
  EXPECT_GT(ConfigDb::Similarity(query, same),
            ConfigDb::Similarity(query, other_user));
  EXPECT_GT(ConfigDb::Similarity(query, other_user),
            ConfigDb::Similarity(query, other_model));
}

TEST(ConfigDbTest, TopKReturnsMostSimilarLast) {
  ConfigDb db;
  for (int i = 0; i < 5; ++i) {
    JobRecord record;
    record.meta = Meta(ModelKind::kDcn, "bob");
    record.final_config.num_workers = 10 + i;
    db.Insert(record);
  }
  JobRecord best;
  best.meta = Meta(ModelKind::kWideDeep, "alice");
  best.final_config.num_workers = 99;
  db.Insert(best);

  const auto top = db.TopKSimilar(Meta(ModelKind::kWideDeep, "alice"), 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top.back().final_config.num_workers, 99);
}

TEST(ConfigDbTest, SkipsFailedRecords) {
  ConfigDb db;
  JobRecord failed;
  failed.meta = Meta(ModelKind::kWideDeep, "alice");
  failed.completed = false;
  db.Insert(failed);
  EXPECT_TRUE(db.TopKSimilar(Meta(ModelKind::kWideDeep, "alice"), 3).empty());
}

TEST(WarmStartTest, ExponentialSmoothingMatchesHandComputation) {
  // Two records: A0 (less similar, w=10), A1 (most similar, w=20).
  // mu=0.5: smoothed = 0.5*20 + 0.5*10 = 15.
  ConfigDb db;
  JobRecord less;
  less.meta = Meta(ModelKind::kWideDeep, "bob");  // lower similarity
  less.final_config.num_workers = 10;
  less.final_config.num_ps = 2;
  db.Insert(less);
  JobRecord more;
  more.meta = Meta(ModelKind::kWideDeep, "alice");
  more.final_config.num_workers = 20;
  more.final_config.num_ps = 4;
  db.Insert(more);

  WarmStartOptions options;
  options.top_k = 2;
  options.mu = 0.5;
  const JobConfig result =
      WarmStartConfig(db, Meta(ModelKind::kWideDeep, "alice"), options);
  EXPECT_EQ(result.num_workers, 15);
  EXPECT_EQ(result.num_ps, 3);
}

TEST(WarmStartTest, FallsBackToDefaultOnEmptyDb) {
  ConfigDb db;
  WarmStartOptions options;
  options.default_config.num_workers = 7;
  const JobConfig result =
      WarmStartConfig(db, Meta(ModelKind::kWideDeep, "x"), options);
  EXPECT_EQ(result.num_workers, 7);
}

TEST(ObjectivesTest, ResourceCostIsLinear) {
  PriceTable prices;
  prices.cpu_core_hour = 1.0;
  prices.mem_gib_hour = 0.5;
  JobConfig config;
  config.num_workers = 2;
  config.num_ps = 1;
  config.worker_cpu = 4.0;
  config.ps_cpu = 2.0;
  config.worker_memory = GiB(8);
  config.ps_memory = GiB(4);
  // CPU: 2*4 + 1*2 = 10; mem: 2*8 + 4 = 20 GiB.
  EXPECT_DOUBLE_EQ(ResourceCost(config, prices), 10.0 + 10.0);
}

TEST(ObjectivesTest, ThroughputGainSubtractsAmortizedOverhead) {
  ThroughputGainOptions options;
  options.amortization_horizon = 100.0;
  // delta = 50; penalty = 10s * 150/100 = 15.
  EXPECT_DOUBLE_EQ(ThroughputGain(100.0, 150.0, 10.0, options), 35.0);
  EXPECT_DOUBLE_EQ(ThroughputGain(100.0, 150.0, 0.0, options), 50.0);
}

TEST(ObjectivesTest, PriorityWeightFavorsShortJobs) {
  WeightOptions options;
  options.rho = 2.5;
  const double short_job = PriorityWeight(1000.0, 100.0, options);
  const double long_job = PriorityWeight(1000000.0, 100.0, options);
  EXPECT_GT(short_job, long_job);
  // rho = 0: weights become equal.
  options.rho = 0.0;
  EXPECT_DOUBLE_EQ(PriorityWeight(1000.0, 100.0, options),
                   PriorityWeight(1000000.0, 100.0, options));
}

TEST(ObjectivesTest, OverheadModelPrefersSeamless) {
  ScalingOverheadModel model;
  JobConfig from;
  from.num_workers = 8;
  from.num_ps = 2;
  JobConfig to = from;
  to.num_ps = 4;
  const Bytes bytes = GiB(10);
  const Duration seamless =
      model.Estimate(from, to, MigrationMode::kSeamless, true, bytes);
  const Duration restart =
      model.Estimate(from, to, MigrationMode::kStopAndRestart, false, bytes);
  EXPECT_LT(seamless, restart / 10.0);
  EXPECT_DOUBLE_EQ(model.Estimate(from, from, MigrationMode::kSeamless,
                                  true, bytes),
                   0.0);
  // Worker-count-only seamless scaling has no checkpoint handoff at all;
  // both seamless variants are well under a minute.
  JobConfig more_workers = from;
  more_workers.num_workers = 12;
  EXPECT_LT(model.Estimate(from, more_workers, MigrationMode::kSeamless,
                           true, bytes),
            Seconds(30));
  EXPECT_LT(seamless, Seconds(30));
}

TEST(GreedySelectorTest, RespectsBudget) {
  JobPlanRequest request;
  request.job_id = 1;
  request.current.num_workers = 2;
  request.current.num_ps = 1;
  request.current.worker_cpu = 4;
  request.current.ps_cpu = 4;
  request.current.worker_memory = GiB(4);
  request.current.ps_memory = GiB(4);

  PlanCandidate big;
  big.config = request.current;
  big.config.num_workers = 100;  // needs ~400 extra cores
  big.throughput_gain = 1000.0;
  big.resource_efficiency = 10.0;
  big.weight = 1.0;
  request.candidates = {big};

  // Budget has no headroom beyond the current allocation.
  const ResourceSpec budget = request.current.TotalResources();
  const auto selected = GreedySelector::Select({request}, budget);
  EXPECT_TRUE(selected.empty());
}

TEST(GreedySelectorTest, PicksHighestWeightedEfficiency) {
  auto make_request = [](uint64_t id, double re, double wg) {
    JobPlanRequest request;
    request.job_id = id;
    request.current.num_workers = 2;
    request.current.num_ps = 1;
    PlanCandidate plan;
    plan.config = request.current;
    plan.config.num_workers = 4;  // +8 cores
    plan.throughput_gain = 100.0;
    plan.resource_efficiency = re;
    plan.weight = wg;
    request.candidates = {plan};
    return request;
  };
  const auto requests = {make_request(1, 5.0, 1.0), make_request(2, 4.0, 2.0),
                         make_request(3, 1.0, 1.0)};
  // Budget: current allocations plus ~one upgrade's worth of headroom.
  ResourceSpec budget{3 * (2 * 4.0 + 4.0) + 8.0 + 2.0, TiB(1)};
  const auto selected = GreedySelector::Select(
      std::vector<JobPlanRequest>(requests), budget);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected.begin()->first, 2u);  // RE*WG = 8 wins
}

TEST(GreedySelectorTest, ShrinkingPlanFreesBudgetForOthers) {
  JobPlanRequest shrink;
  shrink.job_id = 1;
  shrink.current.num_workers = 10;
  shrink.current.num_ps = 1;
  PlanCandidate smaller;
  smaller.config = shrink.current;
  smaller.config.num_workers = 2;  // frees 32 cores
  smaller.throughput_gain = 10.0;
  smaller.resource_efficiency = 100.0;
  smaller.weight = 1.0;
  shrink.candidates = {smaller};

  JobPlanRequest grow;
  grow.job_id = 2;
  grow.current.num_workers = 2;
  grow.current.num_ps = 1;
  PlanCandidate bigger;
  bigger.config = grow.current;
  bigger.config.num_workers = 8;  // needs 24 cores
  bigger.throughput_gain = 50.0;
  bigger.resource_efficiency = 5.0;
  bigger.weight = 1.0;
  grow.candidates = {bigger};

  // Budget exactly covers the current allocations: growth is only possible
  // because the shrink happens first (higher score).
  const ResourceSpec budget =
      shrink.current.TotalResources() + grow.current.TotalResources();
  const auto selected = GreedySelector::Select({shrink, grow}, budget);
  EXPECT_EQ(selected.size(), 2u);
}

TEST(PlanGeneratorTest, CandidatesImproveOnCurrentThroughput) {
  const ModelProfile profile = GetModelProfile(ModelKind::kWideDeep);
  const EnvironmentProfile env;
  ThroughputModel model(profile.dense_param_bytes, profile.embedding_dim,
                        env.network_bandwidth);
  // Fit-free shortcut: use ground-truth-like params directly.
  PerfModelParams params;
  params.alpha_grad = profile.alpha_grad;
  params.alpha_upd = profile.alpha_upd;
  params.alpha_sync = profile.alpha_sync / env.network_bandwidth;
  params.alpha_emb = profile.alpha_emb;
  params.beta_sum = 0.01;

  JobConfig current;
  current.num_workers = 8;
  current.num_ps = 2;
  current.worker_cpu = 6;
  current.ps_cpu = 4;
  const double current_throughput =
      model.PredictThroughput(params, 512, current);

  PlanGeneratorOptions options;
  options.nsga2.population = 32;
  options.nsga2.generations = 20;
  PlanGenerator generator(options);
  const auto candidates = generator.Generate(
      model, params, 512, current, current_throughput, 50e6, GiB(5));
  ASSERT_FALSE(candidates.empty());
  for (const PlanCandidate& plan : candidates) {
    EXPECT_GT(plan.throughput_gain, 0.0);
    EXPECT_GT(plan.predicted_throughput, current_throughput);
  }
}

ThroughputModel WideDeepModel() {
  const ModelProfile profile = GetModelProfile(ModelKind::kWideDeep);
  const EnvironmentProfile env;
  return ThroughputModel(profile.dense_param_bytes, profile.embedding_dim,
                         env.network_bandwidth);
}

/// A random plan search of the shape the brain runs: non-negative
/// parameters around the Wide&Deep ground truth (each alpha zero one time
/// in five), a space whose CPU bounds sit on quarter cores so rounding
/// can move them outward (2.25 -> 2, 4.5 -> 5), and a config inside it.
struct SearchCase {
  PerfModelParams params;
  PlanSearchSpace space;
  JobConfig current;
};

SearchCase RandomSearchCase(Rng& rng) {
  const ModelProfile profile = GetModelProfile(ModelKind::kWideDeep);
  const EnvironmentProfile env;
  auto alpha = [&rng](double scale) {
    return rng.Bernoulli(0.2) ? 0.0 : scale * rng.Uniform(0.0, 2.0);
  };
  SearchCase c;
  c.params.alpha_grad = alpha(profile.alpha_grad);
  c.params.alpha_upd = alpha(profile.alpha_upd);
  c.params.alpha_sync = alpha(profile.alpha_sync / env.network_bandwidth);
  c.params.alpha_emb = alpha(profile.alpha_emb);
  c.params.beta_sum = rng.Uniform(0.001, 0.05);
  auto int_range = [&rng](int lo, int hi, int* min, int* max) {
    *min = lo + static_cast<int>(rng.UniformInt(hi - lo + 1));
    *max = *min + static_cast<int>(rng.UniformInt(hi - *min + 1));
  };
  auto cpu_range = [&rng](Cores* min, Cores* max) {
    *min = 1.0 + 0.25 * static_cast<double>(rng.UniformInt(29));  // 1-8
    *max = *min + 0.25 * static_cast<double>(rng.UniformInt(33));
  };
  int_range(1, 40, &c.space.min_workers, &c.space.max_workers);
  int_range(1, 8, &c.space.min_ps, &c.space.max_ps);
  cpu_range(&c.space.min_worker_cpu, &c.space.max_worker_cpu);
  cpu_range(&c.space.min_ps_cpu, &c.space.max_ps_cpu);
  c.current.num_workers = c.space.min_workers;
  c.current.num_ps = c.space.max_ps;
  c.current.worker_cpu = rng.Uniform(c.space.min_worker_cpu,
                                     c.space.max_worker_cpu);
  c.current.ps_cpu = c.space.min_ps_cpu;
  return c;
}

/// The largest prediction over every point of the integer grid NSGA-II's
/// clamp-then-round can land on, found by visiting all of them.
double BruteForceCeiling(const ThroughputModel& model, const SearchCase& c,
                         uint64_t batch_size) {
  double best = 0.0;
  JobConfig config = c.current;
  for (int w = c.space.min_workers; w <= c.space.max_workers; ++w) {
    for (int p = c.space.min_ps; p <= c.space.max_ps; ++p) {
      for (double lw = std::round(c.space.min_worker_cpu);
           lw <= std::round(c.space.max_worker_cpu); lw += 1.0) {
        for (double lp = std::round(c.space.min_ps_cpu);
             lp <= std::round(c.space.max_ps_cpu); lp += 1.0) {
          config.num_workers = w;
          config.num_ps = p;
          config.worker_cpu = lw;
          config.ps_cpu = lp;
          best = std::max(best,
                          model.PredictThroughput(c.params, batch_size, config));
        }
      }
    }
  }
  return best;
}

TEST(PlanGeneratorTest, ThroughputCeilingIsTheMaxOverTheReachableGrid) {
  const ThroughputModel model = WideDeepModel();
  Rng rng(2109);
  for (int i = 0; i < 120; ++i) {
    const SearchCase c = RandomSearchCase(rng);
    const uint64_t batch = 128u << rng.UniformInt(4);
    EXPECT_EQ(PlanGenerator::ThroughputCeiling(model, c.params, batch,
                                               c.current, c.space),
              BruteForceCeiling(model, c, batch))
        << "case " << i << ": " << c.params.ToString();
  }
}

TEST(PlanGeneratorTest, NoCandidateClearsTheFloorWhenTheCeilingSaysNone) {
  // The brain skips a search when ceiling - current < floor. Put the
  // current throughput on both sides of that line and check that every
  // skipped search would have yielded nothing the hysteresis keeps.
  const ThroughputModel model = WideDeepModel();
  const PlanGenerator generator(PlanGeneratorOptions{});
  Rng rng(43);
  int skipped = 0;
  for (int i = 0; i < 150; ++i) {
    const SearchCase c = RandomSearchCase(rng);
    const double ceiling = PlanGenerator::ThroughputCeiling(
        model, c.params, 512, c.current, c.space);
    ASSERT_TRUE(std::isfinite(ceiling));
    const double current_throughput = ceiling * rng.Uniform(0.93, 1.05);
    const double floor_gain = 0.05 * std::max(1.0, current_throughput);
    const auto candidates =
        generator.Generate(model, c.params, 512, c.current,
                           current_throughput, 50e6, GiB(5), &c.space);
    for (const PlanCandidate& plan : candidates) {
      EXPECT_LE(plan.predicted_throughput, ceiling) << "case " << i;
    }
    if (ceiling - current_throughput >= floor_gain) continue;
    ++skipped;
    for (const PlanCandidate& plan : candidates) {
      EXPECT_LT(plan.throughput_gain, floor_gain)
          << "case " << i << ": " << plan.ToString();
    }
  }
  EXPECT_GT(skipped, 50);
}

TEST(PlanGeneratorTest, ThroughputCeilingFailsOpen) {
  const ThroughputModel model = WideDeepModel();
  Rng rng(5);
  const SearchCase c = RandomSearchCase(rng);
  const double kNoBound = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(std::isfinite(PlanGenerator::ThroughputCeiling(
      model, c.params, 512, c.current, c.space)));

  PerfModelParams negative = c.params;
  negative.alpha_upd = -1e-12;
  EXPECT_EQ(PlanGenerator::ThroughputCeiling(model, negative, 512, c.current,
                                             c.space),
            kNoBound);
  PerfModelParams nan = c.params;
  nan.beta_sum = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(
      PlanGenerator::ThroughputCeiling(model, nan, 512, c.current, c.space),
      kNoBound);
  PerfModelParams infinite = c.params;
  infinite.alpha_emb = kNoBound;
  EXPECT_EQ(PlanGenerator::ThroughputCeiling(model, infinite, 512, c.current,
                                             c.space),
            kNoBound);

  PlanSearchSpace no_workers = c.space;
  no_workers.min_workers = no_workers.max_workers + 1;
  EXPECT_EQ(PlanGenerator::ThroughputCeiling(model, c.params, 512, c.current,
                                             no_workers),
            kNoBound);
  PlanSearchSpace no_ps_cpu = c.space;
  no_ps_cpu.min_ps_cpu = no_ps_cpu.max_ps_cpu + 0.25;
  EXPECT_EQ(PlanGenerator::ThroughputCeiling(model, c.params, 512, c.current,
                                             no_ps_cpu),
            kNoBound);
}

TEST(PlanGeneratorTest, SearchInputsKeyEveryArgumentOfGenerate) {
  const ThroughputModel model = WideDeepModel();
  const PlanGenerator generator(PlanGeneratorOptions{});
  Rng rng(77);
  const SearchCase c = RandomSearchCase(rng);
  PlanSearchInputs base;
  base.params = c.params;
  base.batch_size = 512;
  base.current = c.current;
  base.current_throughput = 0.5 * PlanGenerator::ThroughputCeiling(
                                      model, c.params, 512, c.current, c.space);
  base.remaining_samples = 50e6;
  base.model_bytes = GiB(5);
  base.space = c.space;
  auto generate = [&](const PlanSearchInputs& in) {
    return generator.Generate(model, in.params, in.batch_size, in.current,
                              in.current_throughput, in.remaining_samples,
                              in.model_bytes, &in.space);
  };

  // Same inputs, same candidates: reusing the last search is exact.
  const PlanSearchInputs copy = base;
  EXPECT_TRUE(SameBits(base, copy));
  const auto first = generate(base);
  const auto second = generate(copy);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].config, second[i].config);
    EXPECT_EQ(first[i].predicted_throughput, second[i].predicted_throughput);
    EXPECT_EQ(first[i].throughput_gain, second[i].throughput_gain);
    EXPECT_EQ(first[i].resource_cost, second[i].resource_cost);
    EXPECT_EQ(first[i].resource_efficiency, second[i].resource_efficiency);
    EXPECT_EQ(first[i].weight, second[i].weight);
  }

  // Any one field changed, even by one ulp, misses.
  auto ulp = [](double* v) { *v = std::nextafter(*v, 1e300); };
  const std::vector<std::function<void(PlanSearchInputs&)>> changes = {
      [&](PlanSearchInputs& in) { ulp(&in.params.alpha_grad); },
      [&](PlanSearchInputs& in) { ulp(&in.params.alpha_upd); },
      [&](PlanSearchInputs& in) { ulp(&in.params.alpha_sync); },
      [&](PlanSearchInputs& in) { ulp(&in.params.alpha_emb); },
      [&](PlanSearchInputs& in) { ulp(&in.params.beta_sum); },
      [](PlanSearchInputs& in) { in.batch_size += 1; },
      [](PlanSearchInputs& in) { in.current.num_workers += 1; },
      [](PlanSearchInputs& in) { in.current.num_ps += 1; },
      [&](PlanSearchInputs& in) { ulp(&in.current.worker_cpu); },
      [&](PlanSearchInputs& in) { ulp(&in.current.ps_cpu); },
      [&](PlanSearchInputs& in) { ulp(&in.current.worker_memory); },
      [&](PlanSearchInputs& in) { ulp(&in.current.ps_memory); },
      [&](PlanSearchInputs& in) { ulp(&in.current_throughput); },
      [&](PlanSearchInputs& in) { ulp(&in.remaining_samples); },
      [&](PlanSearchInputs& in) { ulp(&in.model_bytes); },
      [](PlanSearchInputs& in) { in.space.min_workers -= 1; },
      [](PlanSearchInputs& in) { in.space.max_workers += 1; },
      [](PlanSearchInputs& in) { in.space.min_ps -= 1; },
      [](PlanSearchInputs& in) { in.space.max_ps += 1; },
      [&](PlanSearchInputs& in) { ulp(&in.space.min_worker_cpu); },
      [&](PlanSearchInputs& in) { ulp(&in.space.max_worker_cpu); },
      [&](PlanSearchInputs& in) { ulp(&in.space.min_ps_cpu); },
      [&](PlanSearchInputs& in) { ulp(&in.space.max_ps_cpu); },
  };
  for (size_t i = 0; i < changes.size(); ++i) {
    PlanSearchInputs changed = base;
    changes[i](changed);
    EXPECT_FALSE(SameBits(base, changed)) << "change " << i;
  }
  // Equal values with different bits miss too.
  PlanSearchInputs zero = base;
  zero.remaining_samples = 0.0;
  PlanSearchInputs negative_zero = base;
  negative_zero.remaining_samples = -0.0;
  EXPECT_FALSE(SameBits(zero, negative_zero));
}

TEST(ClusterBrainTest, FitsJobModelAndScalesItUp) {
  Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 20;
  Cluster cluster(&sim, cluster_options);

  BrainOptions options;
  options.budget = cluster.TotalCapacity();
  ClusterBrain brain(&sim, options);

  JobSpec spec;
  spec.name = "brain-test";
  spec.total_steps = 200000;
  TrainingJob job(&sim, &cluster, spec, ColdStartConfig(spec.model));
  job.Start();
  brain.Manage(&job, MetadataFor(spec.model, 512, spec.total_steps));
  brain.Start();

  sim.RunUntil(Hours(2));
  const auto views = brain.managed_jobs();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_TRUE(views[0].fitted);
  EXPECT_GT(views[0].observations, 10u);
  // Cold-started at 6 workers; the brain should have grown the job.
  EXPECT_GT(job.config().num_workers, 10);
  EXPECT_EQ(job.state() == JobState::kCompleted ||
                job.state() == JobState::kRunning,
            true);
}

TEST(ClusterBrainTest, RecordsFinishedJobsInConfigDb) {
  Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 20;
  Cluster cluster(&sim, cluster_options);
  BrainOptions options;
  options.budget = cluster.TotalCapacity();
  ClusterBrain brain(&sim, options);

  JobSpec spec;
  spec.total_steps = 30000;
  TrainingJob job(&sim, &cluster, spec, WellTunedConfig(spec.model));
  job.Start();
  brain.Manage(&job, MetadataFor(spec.model, 512, spec.total_steps));
  brain.Start();
  sim.RunUntil(Hours(3));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(brain.config_db().size(), 1u);
  EXPECT_TRUE(brain.config_db().records()[0].completed);
}

}  // namespace
}  // namespace dlrover
