#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"

namespace dlrover {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  const Status status = NotFoundError("missing shard");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing shard");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing shard");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DeadlineExceededError("x").code(), StatusCode::kDeadlineExceeded);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = InvalidArgumentError("bad");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> result = std::make_unique<int>(5);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 5);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.Uniform(3.0, 7.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.UniformInt(uint64_t{10})];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(7);
  constexpr int kDraws = 50000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.Normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(sum_sq / kDraws - mean * mean), 3.0, 0.1);
}

TEST(RngTest, ZipfInBoundsAndSkewed) {
  Rng rng(11);
  std::vector<int> counts(100, 0);
  const ZipfParams params(100, 1.2);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = rng.Zipf(params);
    ASSERT_LT(k, 100u);
    ++counts[k];
  }
  // Head must dominate the tail.
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(RunningStatTest, MatchesClosedForm) {
  RunningStat stat;
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6};
  for (double x : xs) stat.Add(x);
  EXPECT_EQ(stat.count(), 6u);
  EXPECT_DOUBLE_EQ(stat.mean(), 3.5);
  EXPECT_EQ(stat.min(), 1.0);
  EXPECT_EQ(stat.max(), 6.0);
}

TEST(DistributionTest, PercentilesInterpolate) {
  Distribution dist;
  for (int i = 1; i <= 100; ++i) dist.Add(i);
  EXPECT_DOUBLE_EQ(dist.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(dist.Percentile(100), 100.0);
  EXPECT_NEAR(dist.Median(), 50.5, 1e-9);
  EXPECT_NEAR(dist.Percentile(90), 90.1, 0.2);
}

TEST(DistributionTest, CdfMonotone) {
  Distribution dist;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) dist.Add(rng.Uniform(0, 10));
  double prev = -1.0;
  for (int i = 0; i < 20; ++i) {
    const double f = dist.CdfAt(dist.min() + (dist.max() - dist.min()) * i / 19);
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(dist.CdfAt(11.0), 1.0);
  EXPECT_DOUBLE_EQ(dist.CdfAt(-1.0), 0.0);
}

TEST(MetricsTest, RmsleZeroForPerfectPrediction) {
  const std::vector<double> y = {1.0, 2.0, 10.0};
  EXPECT_DOUBLE_EQ(Rmsle(y, y), 0.0);
  EXPECT_DOUBLE_EQ(RSquared(y, y), 1.0);
}

TEST(MetricsTest, RmsleKnownValue) {
  const std::vector<double> predicted = {std::exp(1.0) - 1.0};
  const std::vector<double> actual = {0.0};
  EXPECT_NEAR(Rmsle(predicted, actual), 1.0, 1e-12);
}

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(Minutes(2), 120.0);
  EXPECT_DOUBLE_EQ(Hours(1), 3600.0);
  EXPECT_DOUBLE_EQ(Days(1), 86400.0);
  EXPECT_DOUBLE_EQ(ToGiB(GiB(5)), 5.0);
  EXPECT_DOUBLE_EQ(ToTiB(TiB(2)), 2.0);
  EXPECT_DOUBLE_EQ(GiB(1), 1024.0 * 1024.0 * 1024.0);
}

TEST(LoggingTest, LevelFiltering) {
  // Below the warning floor a line is dropped; at it, it reaches stderr.
  testing::internal::CaptureStderr();
  DLROVER_LOG_STREAM(Info) << "dropped " << 42;
  DLROVER_LOG_STREAM(Warning) << "printed " << 7;
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("dropped"), std::string::npos) << err;
  EXPECT_NE(err.find("printed 7"), std::string::npos) << err;
  EXPECT_NE(err.find("[W common_test.cc:"), std::string::npos) << err;
}

}  // namespace
}  // namespace dlrover
