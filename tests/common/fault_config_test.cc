// FaultConfig validation and the strict parse of the command-line fault
// flags shared by sim_cli and the bench drivers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/fault.h"

namespace peercache::fault {
namespace {

TEST(FaultConfig, DefaultsAreValid) {
  EXPECT_TRUE(FaultConfig{}.Validate().ok());
}

TEST(FaultConfig, ValidateRejectsBadProbabilities) {
  for (double bad : {-0.1, 1.5, std::nan(""),
                     std::numeric_limits<double>::infinity()}) {
    FaultConfig drop;
    drop.drop_prob = bad;
    FaultConfig fail;
    fail.fail_prob = bad;
    FaultConfig stale;
    stale.stale_prob = bad;
    EXPECT_FALSE(drop.Validate().ok()) << bad;
    EXPECT_FALSE(fail.Validate().ok()) << bad;
    EXPECT_FALSE(stale.Validate().ok()) << bad;
  }
  FaultConfig edges;
  edges.drop_prob = 0.0;
  edges.fail_prob = 1.0;
  edges.stale_prob = 0.5;
  EXPECT_TRUE(edges.Validate().ok());
}

TEST(FaultConfig, ValidateRejectsNegativeRetries) {
  FaultConfig config;
  config.max_retries = -1;
  const Status s = config.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("max_retries"), std::string::npos);
  config.max_retries = 0;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(FaultFlags, RecognizesExactlyTheValuedFlags) {
  for (const char* flag : {"--fault-drop", "--fault-fail", "--fault-stale",
                           "--fault-seed", "--fault-retries"}) {
    EXPECT_TRUE(IsFaultFlag(flag)) << flag;
  }
  EXPECT_FALSE(IsFaultFlag("--no-fault-retries"));
  EXPECT_FALSE(IsFaultFlag("--fault"));
  EXPECT_FALSE(IsFaultFlag("--latency-seed"));
}

TEST(FaultFlags, AppliesWellFormedValues) {
  FaultConfig config;
  ASSERT_TRUE(ApplyFaultFlag("--fault-drop", "0.2", config).ok());
  ASSERT_TRUE(ApplyFaultFlag("--fault-fail", "1", config).ok());
  ASSERT_TRUE(ApplyFaultFlag("--fault-stale", "0", config).ok());
  ASSERT_TRUE(ApplyFaultFlag("--fault-seed", "18446744073709551615", config)
                  .ok());
  ASSERT_TRUE(ApplyFaultFlag("--fault-retries", "0", config).ok());
  EXPECT_EQ(config.drop_prob, 0.2);
  EXPECT_EQ(config.fail_prob, 1.0);
  EXPECT_EQ(config.stale_prob, 0.0);
  EXPECT_EQ(config.seed, ~uint64_t{0});
  EXPECT_EQ(config.max_retries, 0);
}

TEST(FaultFlags, RejectsMalformedOrOutOfRangeValuesNamingTheFlag) {
  const struct {
    const char* flag;
    const char* value;
  } cases[] = {
      {"--fault-retries", "-1"},   {"--fault-retries", "abc"},
      {"--fault-retries", "3x"},   {"--fault-retries", ""},
      {"--fault-retries", "1.5"},  {"--fault-retries", "99999999999"},
      {"--fault-drop", "1.5"},     {"--fault-drop", "-0.1"},
      {"--fault-drop", "abc"},     {"--fault-drop", "nan"},
      {"--fault-fail", "inf"},     {"--fault-fail", "0.5%"},
      {"--fault-stale", "2"},      {"--fault-stale", ""},
      {"--fault-seed", "-1"},      {"--fault-seed", "seven"},
      {"--fault-seed", "7 "},      {"--fault-seed", "99999999999999999999"},
  };
  for (const auto& c : cases) {
    FaultConfig config;
    config.drop_prob = 0.25;
    const FaultConfig before = config;
    const Status s = ApplyFaultFlag(c.flag, c.value, config);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
        << c.flag << " " << c.value;
    EXPECT_NE(s.message().find(c.flag), std::string::npos) << s.message();
    // A rejected value leaves the config as it was.
    EXPECT_EQ(config.drop_prob, before.drop_prob);
    EXPECT_EQ(config.fail_prob, before.fail_prob);
    EXPECT_EQ(config.stale_prob, before.stale_prob);
    EXPECT_EQ(config.seed, before.seed);
    EXPECT_EQ(config.max_retries, before.max_retries);
  }
}

}  // namespace
}  // namespace peercache::fault
