// End-to-end: the nine evaluated queries through UPA, native runs, FLEX
// and ground truth, at small scale.
#include "queries/suite.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/stats.h"
#include "queries/plan_query.h"
#include "relational/sql_parser.h"

namespace upa::queries {
namespace {

SuiteConfig SmallSuite(uint64_t seed = 1) {
  SuiteConfig cfg;
  cfg.tpch.num_orders = 400;
  cfg.tpch.seed = seed;
  cfg.ml.num_points = 3000;
  cfg.ml.seed = seed + 1000;
  cfg.threads = 2;
  cfg.engine_partitions = 3;
  return cfg;
}

core::UpaConfig TestUpaConfig() {
  core::UpaConfig cfg;
  cfg.sample_n = 150;
  cfg.add_noise = false;
  return cfg;
}

class SuiteTest : public ::testing::Test {
 protected:
  SuiteTest() : suite_(SmallSuite()) {}
  QuerySuite suite_;
};

TEST_F(SuiteTest, NineQueriesRegistered) {
  EXPECT_EQ(QuerySuite::AllQueryNames().size(), 9u);
  for (const auto& name : QuerySuite::AllQueryNames()) {
    EXPECT_FALSE(suite_.Info(name).query_type.empty()) << name;
  }
}

TEST_F(SuiteTest, SupportMatrixMatchesPaper) {
  // UPA supports all nine; FLEX exactly the five count queries.
  std::set<std::string> flex_supported;
  for (const auto& name : QuerySuite::AllQueryNames()) {
    auto flex = suite_.RunFlex(name);
    if (flex.supported) flex_supported.insert(name);
    EXPECT_EQ(flex.supported, suite_.Info(name).flex_supported) << name;
  }
  EXPECT_EQ(flex_supported,
            (std::set<std::string>{"TPCH1", "TPCH4", "TPCH13", "TPCH16",
                                   "TPCH21"}));
}

TEST_F(SuiteTest, UpaRawOutputEqualsNativeOnAllQueries) {
  core::UpaRunner runner(TestUpaConfig());
  for (const auto& name : QuerySuite::AllQueryNames()) {
    double native = suite_.RunNative(name);
    auto instance = suite_.MakeInstance(name);
    auto result = runner.Run(instance, 7);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    // First submission: no enforcer removal, so UPA's union-preserving
    // reduce must reproduce the vanilla output exactly.
    EXPECT_FALSE(result.value().enforcer.attack_suspected) << name;
    EXPECT_NEAR(result.value().raw_output, native,
                1e-6 * std::max(1.0, std::fabs(native)))
        << name;
  }
}

TEST_F(SuiteTest, UpaSensitivityTracksGroundTruth) {
  core::UpaRunner runner(TestUpaConfig());
  for (const auto& name : QuerySuite::AllQueryNames()) {
    auto gt = suite_.ComputeGroundTruth(name, /*n_additions=*/150, 3);
    ASSERT_TRUE(gt.ok()) << name;
    auto result = runner.Run(suite_.MakeInstance(name), 3);
    ASSERT_TRUE(result.ok()) << name;
    double inferred = result.value().local_sensitivity;
    double truth = gt.value().local_sensitivity;
    ASSERT_GT(truth, 0.0) << name;
    // The inferred value must be the right order of magnitude (the paper
    // reports percent-level RMSE for most queries). TPCH21 is the paper's
    // own outlier case: its influential records are so rare that the
    // sample can legitimately miss all of them, so no lower bound there.
    if (name != "TPCH21") {
      EXPECT_GT(inferred, truth * 0.05) << name;
    }
    EXPECT_LT(inferred, truth * 20.0) << name;
  }
}

TEST_F(SuiteTest, GroundTruthCoverageByInferredRange) {
  // Fig 3's claim: the inferred range covers the overwhelming majority of
  // all neighbouring datasets' outputs.
  core::UpaConfig cfg = TestUpaConfig();
  cfg.sample_n = 400;
  core::UpaRunner runner(cfg);
  size_t well_covered = 0;
  for (const auto& name : QuerySuite::AllQueryNames()) {
    auto gt = suite_.ComputeGroundTruth(name, 200, 5);
    ASSERT_TRUE(gt.ok()) << name;
    auto result = runner.Run(suite_.MakeInstance(name), 5);
    ASSERT_TRUE(result.ok()) << name;
    double covered = upa::CoverageFraction(gt.value().neighbour_outputs,
                                      result.value().out_range.lo,
                                      result.value().out_range.hi);
    // Coverage is data-dependent: the paper's 98.9% bar holds where the
    // influence distribution is dense (their dbgen data); our synthetic
    // join queries have sparser influences, which is the same effect the
    // paper reports for TPCH21. Structurally: nothing may fall below 80%,
    // smooth-influence queries must clear the paper's bar.
    EXPECT_GE(covered, 0.80) << name;
    if (name == "TPCH1" || name == "KMeans" || name == "LinearRegression") {
      EXPECT_GE(covered, 0.95) << name;
    }
    if (covered >= 0.95) ++well_covered;
  }
  EXPECT_GE(well_covered, 3u);
}

TEST_F(SuiteTest, ChurnRemovesRecords) {
  for (const auto& name : {"TPCH4", "KMeans"}) {
    size_t before = suite_.NumPrivateRecords(name);
    ChurnedData churn = suite_.MakeChurn(name, 2, 99);
    EXPECT_EQ(suite_.NumPrivateRecords(name, &churn), before - 2) << name;
  }
}

TEST_F(SuiteTest, ChurnedNativeOutputDiffers) {
  // Removing records must change the (count-style) output.
  ChurnedData churn = suite_.MakeChurn("TPCH1", 2, 5);
  EXPECT_DOUBLE_EQ(suite_.RunNative("TPCH1", &churn),
                   suite_.RunNative("TPCH1") - 2.0);
}

TEST_F(SuiteTest, RepeatedQueryOnNeighbouringDataTriggersEnforcer) {
  // The paper's attack: same query, dataset differing by one record.
  core::UpaRunner runner(TestUpaConfig());
  auto first = runner.Run(suite_.MakeInstance("TPCH1"), 11);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().enforcer.attack_suspected);

  ChurnedData churn = suite_.MakeChurn("TPCH1", 1, 42);
  auto second = runner.Run(suite_.MakeInstance("TPCH1", &churn), 11);
  ASSERT_TRUE(second.ok());
  // One removed record leaves one partition's output unchanged → Case 2.
  EXPECT_TRUE(second.value().enforcer.attack_suspected);
  EXPECT_GE(second.value().enforcer.records_removed, 2u);
}

TEST_F(SuiteTest, TwoRecordChurnIsNotAnAttack) {
  core::UpaRunner runner(TestUpaConfig());
  auto first = runner.Run(suite_.MakeInstance("TPCH1"), 13);
  ASSERT_TRUE(first.ok());
  // Removing two records (one per partition) changes both partitions.
  for (uint64_t churn_seed = 0; churn_seed < 6; ++churn_seed) {
    ChurnedData churn = suite_.MakeChurn("TPCH1", 2, churn_seed);
    auto second = runner.Run(suite_.MakeInstance("TPCH1", &churn), 13);
    ASSERT_TRUE(second.ok());
    // Whether both partitions changed depends on which records were hit;
    // at minimum the run must complete and register.
    EXPECT_GE(second.value().partition_outputs.size(), 2u);
  }
}

TEST_F(SuiteTest, PlanQueriesShuffleMoreUnderUpaThanNative) {
  // joinDP's doubled shuffle: UPA's phase runs must shuffle more rounds
  // than one native execution for a join query.
  auto& metrics = suite_.ctx().metrics();
  auto before_native = metrics.Snapshot();
  suite_.RunNative("TPCH4");
  auto native_delta = metrics.Snapshot() - before_native;

  core::UpaRunner runner(TestUpaConfig());
  auto before_upa = metrics.Snapshot();
  ASSERT_TRUE(runner.Run(suite_.MakeInstance("TPCH4"), 21).ok());
  auto upa_delta = metrics.Snapshot() - before_upa;

  EXPECT_GT(upa_delta.shuffle_rounds, native_delta.shuffle_rounds);
}

TEST_F(SuiteTest, GroundTruthDeterministicPerSeed) {
  auto a = suite_.ComputeGroundTruth("TPCH6", 50, 9);
  auto b = suite_.ComputeGroundTruth("TPCH6", 50, 9);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().neighbour_outputs, b.value().neighbour_outputs);
}

TEST_F(SuiteTest, MlInstancesUseChurnedRecords) {
  core::UpaRunner runner(TestUpaConfig());
  ChurnedData churn = suite_.MakeChurn("LinearRegression", 10, 3);
  auto result = runner.Run(suite_.MakeInstance("LinearRegression", &churn), 2);
  ASSERT_TRUE(result.ok());
  double churned_native = suite_.RunNative("LinearRegression", &churn);
  EXPECT_NEAR(result.value().raw_output, churned_native, 1e-9);
}

// A release's three phase runs share the public side (scans and fully
// public join subtrees) through a block cache the release owns: after N
// releases the context's cache holds exactly what it held before them,
// while the phase runs still hit each other's entries.
TEST_F(SuiteTest, ReleasesLeaveTheContextBlockCacheAsTheyFoundIt) {
  core::UpaRunner runner(TestUpaConfig());
  engine::ExecContext& ctx = suite_.ctx();
  const size_t before = ctx.cache().size();
  const uint64_t hits_before = ctx.metrics().Snapshot().cache_hits;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (const char* name : {"TPCH4", "TPCH11", "TPCH21"}) {
      auto result = runner.Run(suite_.MakeInstance(name), seed);
      ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    }
  }
  EXPECT_EQ(ctx.cache().size(), before);
  EXPECT_GT(ctx.metrics().Snapshot().cache_hits, hits_before);
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

// A sensitivity-cache hit runs only what its release reads: no domain run
// and no neighbour outputs. Two runners with identically grown registries,
// one fed the sensitivity the other inferred for the same seed, must
// release the same bits on real TPC-H plans — including runs where the
// enforcer removes records and runs into its cap.
TEST_F(SuiteTest, HintedPlanReleasesMatchUnhintedBitForBit) {
  const tpch::TpchDataset& data = suite_.tpch_data();
  const rel::Catalog catalog = data.catalog();
  // One context per side, so the hinted side's phase list is its own.
  engine::ExecContext full_ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 3});
  engine::ExecContext hinted_ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 3});
  auto full_exec =
      std::make_shared<const rel::PlanExecutor>(&full_ctx, &catalog);
  auto hinted_exec =
      std::make_shared<const rel::PlanExecutor>(&hinted_ctx, &catalog);

  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM orders WHERE o_orderdate < 1500",
      "SELECT SUM(o_custkey) FROM orders WHERE o_orderdate >= 600",
      "SELECT SUM(l_extendedprice) FROM orders JOIN lineitem ON o_orderkey = "
      "l_orderkey WHERE o_orderdate < 1800",
  };
  std::vector<core::QueryInstance> full_queries, hinted_queries;
  for (size_t i = 0; i < sqls.size(); ++i) {
    Result<rel::PlanPtr> plan = rel::ParseSql(sqls[i]);
    ASSERT_TRUE(plan.ok()) << sqls[i] << ": " << plan.status().ToString();
    tpch::TpchQuery query{"hinted" + std::to_string(i), plan.value(),
                          "orders"};
    full_queries.push_back(MakePlanQuery(&full_ctx, full_exec, &data, query));
    hinted_queries.push_back(
        MakePlanQuery(&hinted_ctx, hinted_exec, &data, query));
  }

  core::UpaConfig cfg = TestUpaConfig();
  cfg.add_noise = true;
  core::UpaRunner full(cfg), hinted(cfg);
  // Two alternating seeds: each repeat of a (query, seed) pair must
  // separate from every earlier registration, so removals grow run by run
  // until they reach the cap.
  std::vector<size_t> removing_runs(sqls.size()), capped_runs(sqls.size());
  for (uint64_t round = 0; round < 32; ++round) {
    for (size_t q = 0; q < sqls.size(); ++q) {
      const uint64_t seed = 100 + round % 2;
      auto a = full.Run(full_queries[q], seed);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      core::SensitivityHint hint{a.value().local_sensitivity,
                                 a.value().out_range,
                                 a.value().degenerate_sensitivity};
      auto b = hinted.Run(hinted_queries[q], seed, &hint);
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      const core::UpaRunResult& x = a.value();
      const core::UpaRunResult& y = b.value();
      SCOPED_TRACE(sqls[q] + " round " + std::to_string(round));
      EXPECT_EQ(std::bit_cast<uint64_t>(y.released_output),
                std::bit_cast<uint64_t>(x.released_output));
      EXPECT_EQ(std::bit_cast<uint64_t>(y.raw_output),
                std::bit_cast<uint64_t>(x.raw_output));
      EXPECT_EQ(Bits(y.partition_outputs), Bits(x.partition_outputs));
      EXPECT_EQ(y.enforcer.records_removed, x.enforcer.records_removed);
      EXPECT_EQ(y.enforcer.removal_capped, x.enforcer.removal_capped);
      EXPECT_EQ(y.enforcer.attack_suspected, x.enforcer.attack_suspected);
      EXPECT_TRUE(y.neighbour_outputs.empty());
      EXPECT_EQ(y.metrics.phase_seconds.count("upa/plan_domain"), 0u);
      EXPECT_EQ(x.metrics.phase_seconds.count("upa/plan_domain"), 1u);
      if (x.enforcer.records_removed > 0) ++removing_runs[q];
      if (x.enforcer.removal_capped) ++capped_runs[q];
    }
  }
  EXPECT_EQ(hinted_ctx.metrics().Snapshot().phase_seconds.count(
                "upa/plan_domain"),
            0u);
  for (size_t q = 0; q < sqls.size(); ++q) {
    EXPECT_GT(removing_runs[q], 0u) << sqls[q];
    EXPECT_GT(capped_runs[q], 0u) << sqls[q];
  }
}

}  // namespace
}  // namespace upa::queries
