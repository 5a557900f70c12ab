#include "brain/nsga2.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"

namespace dlrover {
namespace {

TEST(Nsga2Test, DominanceLogic) {
  EXPECT_TRUE(Nsga2::Dominates({1, 1}, {2, 2}));
  EXPECT_TRUE(Nsga2::Dominates({1, 2}, {2, 2}));
  EXPECT_FALSE(Nsga2::Dominates({1, 3}, {2, 2}));
  EXPECT_FALSE(Nsga2::Dominates({2, 2}, {2, 2}));  // equal: no domination
}

TEST(Nsga2Test, NonDominatedSortKnownFronts) {
  const std::vector<Nsga2::Objectives> objs = {
      {1, 5},  // front 0
      {5, 1},  // front 0
      {3, 3},  // front 0
      {4, 4},  // front 1 (dominated by {3,3})
      {6, 6},  // front 2 (dominated by {4,4})
  };
  const auto fronts = Nsga2::NonDominatedSort(objs);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0].size(), 3u);
  EXPECT_EQ(fronts[1].size(), 1u);
  EXPECT_EQ(fronts[1][0], 3u);
  EXPECT_EQ(fronts[2][0], 4u);
}

TEST(Nsga2Test, CrowdingBoundariesAreInfinite) {
  const std::vector<Nsga2::Objectives> objs = {
      {1, 5}, {2, 4}, {3, 3}, {4, 2}, {5, 1}};
  const std::vector<size_t> front = {0, 1, 2, 3, 4};
  const auto crowding = Nsga2::CrowdingDistances(objs, front);
  EXPECT_TRUE(std::isinf(crowding[0]));
  EXPECT_TRUE(std::isinf(crowding[4]));
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_GT(crowding[i], 0.0);
    EXPECT_FALSE(std::isinf(crowding[i]));
  }
}

// ZDT1: the classic two-objective benchmark with a known Pareto front
// f2 = 1 - sqrt(f1) at g(x)=1 (all tail variables zero).
Nsga2::Objectives Zdt1(const std::vector<double>& x) {
  const double f1 = x[0];
  double g = 0.0;
  for (size_t i = 1; i < x.size(); ++i) g += x[i];
  g = 1.0 + 9.0 * g / static_cast<double>(x.size() - 1);
  const double f2 = g * (1.0 - std::sqrt(f1 / g));
  return {f1, f2};
}

TEST(Nsga2Test, ConvergesToZdt1Front) {
  std::vector<DecisionBounds> bounds(8, {0.0, 1.0, false});
  Nsga2Options options;
  options.population = 64;
  options.generations = 120;
  options.seed = 3;
  Nsga2 nsga2(bounds, Zdt1, options);
  const auto front = nsga2.Run();
  ASSERT_GE(front.size(), 10u);
  // Every returned point should lie close to the analytic front.
  double worst_gap = 0.0;
  for (const auto& ind : front) {
    const double f1 = ind.objectives[0];
    const double f2 = ind.objectives[1];
    const double ideal = 1.0 - std::sqrt(f1);
    worst_gap = std::max(worst_gap, f2 - ideal);
  }
  EXPECT_LT(worst_gap, 0.15);
}

TEST(Nsga2Test, FrontIsMutuallyNonDominated) {
  std::vector<DecisionBounds> bounds(4, {0.0, 1.0, false});
  Nsga2Options options;
  options.population = 32;
  options.generations = 30;
  Nsga2 nsga2(bounds, Zdt1, options);
  const auto front = nsga2.Run();
  for (size_t i = 0; i < front.size(); ++i) {
    for (size_t j = 0; j < front.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          Nsga2::Dominates(front[i].objectives, front[j].objectives));
    }
  }
}

TEST(Nsga2Test, IntegerVariablesStayIntegral) {
  std::vector<DecisionBounds> bounds = {{1.0, 40.0, true},
                                        {1.0, 8.0, true}};
  auto objective = [](const std::vector<double>& x) {
    return Nsga2::Objectives{x[0] + x[1], 100.0 / (x[0] * x[1])};
  };
  Nsga2Options options;
  options.population = 24;
  options.generations = 15;
  Nsga2 nsga2(bounds, objective, options);
  for (const auto& ind : nsga2.Run()) {
    EXPECT_DOUBLE_EQ(ind.x[0], std::round(ind.x[0]));
    EXPECT_DOUBLE_EQ(ind.x[1], std::round(ind.x[1]));
    EXPECT_GE(ind.x[0], 1.0);
    EXPECT_LE(ind.x[0], 40.0);
  }
}

TEST(Nsga2Test, DeterministicForSeed) {
  std::vector<DecisionBounds> bounds(4, {0.0, 1.0, false});
  Nsga2Options options;
  options.population = 16;
  options.generations = 10;
  options.seed = 77;
  Nsga2 a(bounds, Zdt1, options);
  Nsga2 b(bounds, Zdt1, options);
  const auto fa = a.Run();
  const auto fb = b.Run();
  ASSERT_EQ(fa.size(), fb.size());
  for (size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].x, fb[i].x);
  }
}

TEST(Nsga2Test, FrozenDimensionStaysPut) {
  std::vector<DecisionBounds> bounds = {{5.0, 5.0, true},
                                        {0.0, 1.0, false}};
  auto objective = [](const std::vector<double>& x) {
    return Nsga2::Objectives{x[1], 1.0 - x[1] + x[0] * 0.0};
  };
  Nsga2 nsga2(bounds, objective, Nsga2Options{});
  for (const auto& ind : nsga2.Run()) {
    EXPECT_DOUBLE_EQ(ind.x[0], 5.0);
  }
}

// Deb's all-pairs fast non-dominated sort, the implementation the
// sort-based peel replaced. It is the oracle for both the fronts and the
// order of their members: crowding ties depend on that order.
std::vector<std::vector<size_t>> AllPairsSort(
    const std::vector<Nsga2::Objectives>& objectives) {
  const size_t n = objectives.size();
  std::vector<int> domination_count(n, 0);
  std::vector<std::vector<size_t>> dominated_by(n);
  std::vector<std::vector<size_t>> fronts;
  std::vector<size_t> current;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (Nsga2::Dominates(objectives[i], objectives[j])) {
        dominated_by[i].push_back(j);
      } else if (Nsga2::Dominates(objectives[j], objectives[i])) {
        ++domination_count[i];
      }
    }
    if (domination_count[i] == 0) current.push_back(i);
  }
  while (!current.empty()) {
    fronts.push_back(current);
    std::vector<size_t> next;
    for (size_t i : current) {
      for (size_t j : dominated_by[i]) {
        if (--domination_count[j] == 0) next.push_back(j);
      }
    }
    current = std::move(next);
  }
  return fronts;
}

TEST(Nsga2Test, NonDominatedSortMatchesAllPairsOracle) {
  Rng rng(20240);
  std::vector<Nsga2::Objectives> objs;
  for (int trial = 0; trial < 100000; ++trial) {
    const size_t n = 1 + static_cast<size_t>(trial) % 96;
    const int shape = (trial / 96) % 4;
    const uint64_t side = 1 + rng.UniformInt(uint64_t{12});
    objs.resize(n);
    for (size_t i = 0; i < n; ++i) {
      auto& o = objs[i];
      switch (shape) {
        case 0:  // integer lattice: heavy ties and exact duplicates
          o = {static_cast<double>(rng.UniformInt(side)),
               static_cast<double>(rng.UniformInt(side))};
          break;
        case 1:  // continuous: ties are rare
          o = {rng.Uniform(), rng.Uniform()};
          break;
        case 2: {  // near the anti-diagonal: few, wide fronts
          const double f0 = static_cast<double>(rng.UniformInt(side * 4));
          o = {f0, static_cast<double>(side * 4) - f0 +
                       static_cast<double>(rng.UniformInt(uint64_t{3}))};
          break;
        }
        default:  // repeats of earlier points mixed with fresh ones
          if (i > 0 && rng.Bernoulli(0.4)) {
            o = objs[rng.UniformInt(i)];
          } else {
            o = {static_cast<double>(rng.UniformInt(side)), rng.Uniform()};
          }
      }
    }
    ASSERT_EQ(Nsga2::NonDominatedSort(objs), AllPairsSort(objs))
        << "trial " << trial << ", n " << n << ", shape " << shape;
  }
}

// The shape of PlanGenerator's search: integer (workers, ps, worker cpu,
// ps cpu), objectives (resource cost, 1 / throughput gain) with the same
// large finite penalty for plans that do not improve on the current one.
Nsga2::Objectives PlanShaped(const std::vector<double>& x) {
  auto throughput = [](double w, double p, double wc, double pc) {
    return w / (0.1 + 0.01 * w / (p * pc) + 0.48 / wc + 0.2 / p);
  };
  const double current = throughput(8, 2, 4, 4);
  const double cost = x[0] * x[2] + x[1] * x[3];
  const double gain = throughput(x[0], x[1], x[2], x[3]) / current - 1.0;
  return {cost, gain > 1e-9 ? 1.0 / gain : 1e9 - gain};
}

// FNV-1a over the %a (lossless) text of every emitted member, so the hash
// moves if any bit of any decision, objective or crowding value does.
uint64_t FrontHash(const std::vector<Nsga2Individual>& front) {
  std::string text;
  char buf[256];
  for (const Nsga2Individual& ind : front) {
    for (double v : ind.x) {
      std::snprintf(buf, sizeof buf, "%a,", v);
      text += buf;
    }
    std::snprintf(buf, sizeof buf, "f=%a,%a r=%d c=%a;", ind.objectives[0],
                  ind.objectives[1], ind.rank, ind.crowding);
    text += buf;
  }
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Whole-search pins, recorded from the all-pairs implementation before the
// sort-based peel and flat buffers replaced it: the rewrite must emit the
// same fronts bit for bit.
TEST(Nsga2Test, PlanSearchFrontsArePinned) {
  struct Pin {
    int population;
    int generations;
    uint64_t seed;
    size_t size;
    uint64_t hash;
  };
  const Pin pins[] = {
      {32, 20, 1, 25, 0x1d2da4bae37e0dfdull},
      {32, 20, 2, 30, 0xba85b4aaa956d26bull},
      {32, 20, 3, 29, 0x0123501ce291a485ull},
      {32, 20, 4, 25, 0xd427dbdb58eccbb7ull},
      {32, 20, 5, 29, 0x2597e097a2398788ull},
      {48, 40, 1, 46, 0xa0c8e7e313a9ef65ull},
      {48, 40, 2, 43, 0x23979baec96eea42ull},
      {48, 40, 3, 42, 0xa13d74d8d1c9bddeull},
      {48, 40, 4, 42, 0x67877d2f494424c6ull},
      {48, 40, 5, 42, 0x07a407fe861a4fd6ull},
  };
  const std::vector<DecisionBounds> bounds = {
      {1, 40, true}, {1, 8, true}, {1, 16, true}, {1, 16, true}};
  for (const Pin& pin : pins) {
    Nsga2Options options;
    options.population = pin.population;
    options.generations = pin.generations;
    options.seed = pin.seed;
    Nsga2 nsga2(bounds, PlanShaped, options);
    const auto front = nsga2.Run();
    EXPECT_EQ(front.size(), pin.size) << pin.population << "x"
                                      << pin.generations << " seed "
                                      << pin.seed;
    EXPECT_EQ(FrontHash(front), pin.hash) << pin.population << "x"
                                          << pin.generations << " seed "
                                          << pin.seed;
  }
}

}  // namespace
}  // namespace dlrover
