// The benchmark's own test. It pins the simulated counts of the default
// seed, so drift in workload generation (or in the simulator under it)
// is caught before it silently changes what the benchmark measures, and
// runs a second seed through the output checks, so the workloads do not
// depend on one lucky seed.
#include <gtest/gtest.h>

#include "workloads.h"

namespace perfbench {
namespace {

// The default seed, whose counts are pinned, and a second one that must
// pass the same output checks.
constexpr uint64_t kDefaultSeed = 7;
constexpr uint64_t kSecondSeed = 8;

TEST(PerfbenchDumbbell, DefaultSeedCountsArePinned) {
  const Rep rep = run_dumbbell_rep(kDefaultSeed, nullptr);
  EXPECT_EQ(rep.error, "");
  EXPECT_EQ(rep.counts.events, 943878u);
  EXPECT_EQ(rep.counts.total_events, 976974u);
  EXPECT_EQ(rep.counts.delivered_bytes, 311802000);
}

TEST(PerfbenchDumbbell, TracedRepSimulatesTheUntracedOne) {
  SpanClock clock;
  const Rep traced = run_dumbbell_rep(kDefaultSeed, &clock);
  const Rep plain = run_dumbbell_rep(kDefaultSeed, nullptr);
  EXPECT_EQ(traced.error, "");
  EXPECT_EQ(traced.counts, plain.counts);
  EXPECT_GT(clock.totals(Span::kSenderAck).calls, 0u);
  EXPECT_GT(clock.totals(Span::kPccOnAck).calls, 0u);
  EXPECT_GT(clock.totals(Span::kRefOnAck).calls, 0u);
}

TEST(PerfbenchDumbbell, SecondSeedPassesChecks) {
  const Rep rep = run_dumbbell_rep(kSecondSeed, nullptr);
  EXPECT_EQ(rep.error, "");
  EXPECT_GT(rep.counts.events, 0u);
  EXPECT_GT(rep.bottleneck_util, 0.5);
}

TEST(PerfbenchCdn, DefaultSeedCountsArePinnedAndBelowCapacity) {
  const Rep rep = run_cdn_rep(kDefaultSeed, 2, /*profile=*/false);
  EXPECT_EQ(rep.error, "");
  EXPECT_EQ(rep.counts.events, 15524061u);
  EXPECT_EQ(rep.counts.total_events, 26688036u);
  EXPECT_EQ(rep.counts.delivered_bytes, 3276809881);
  EXPECT_EQ(rep.counts.spawned, 19981);
  EXPECT_EQ(rep.counts.completed, 19226);
  // The realistic operating point: nothing shed, nothing dropped.
  EXPECT_EQ(rep.layer.at("churn.skipped_ratio"), 0.0);
  EXPECT_EQ(rep.layer.at("link.drops"), 0.0);
  EXPECT_GE(rep.bottleneck_util, 0.3);
  EXPECT_LE(rep.bottleneck_util, 0.8);
  EXPECT_GE(rep.completion_ratio, 0.9);
  EXPECT_GE(rep.layer.at("churn.arena_hit_ratio"), 0.8);
}

TEST(PerfbenchCdn, SerialAndShardedRunsAgree) {
  const Rep serial = run_cdn_rep(kSecondSeed, 1, /*profile=*/false);
  const Rep sharded = run_cdn_rep(kSecondSeed, 4, /*profile=*/true);
  EXPECT_EQ(serial.error, "");
  EXPECT_EQ(sharded.error, "");
  EXPECT_EQ(serial.counts, sharded.counts);
  EXPECT_GT(sharded.counts.spawned, 0);
}

}  // namespace
}  // namespace perfbench
