#include <gtest/gtest.h>

#include <memory>

#include "relational/plan.h"
#include "relational/table.h"

namespace upa::rel {
namespace {

Table MakeKeyTable() {
  return Table(
      "t", Schema({{"k", ValueType::kInt}, {"v", ValueType::kString}}),
      std::vector<Row>{
          {Value{int64_t{1}}, Value{std::string("a")}},
          {Value{int64_t{1}}, Value{std::string("b")}},
          {Value{int64_t{1}}, Value{std::string("a")}},
          {Value{int64_t{2}}, Value{std::string("a")}},
          {Value{int64_t{3}}, Value{std::string("c")}},
      });
}

TEST(TableTest, BasicAccessors) {
  Table t = MakeKeyTable();
  EXPECT_EQ(t.name(), "t");
  EXPECT_EQ(t.NumRows(), 5u);
  EXPECT_EQ(t.schema().NumColumns(), 2u);
}

TEST(TableTest, MaxFrequencyPerColumn) {
  Table t = MakeKeyTable();
  EXPECT_EQ(t.MaxFrequency("k"), 3u);  // key 1 appears 3 times
  EXPECT_EQ(t.MaxFrequency("v"), 3u);  // "a" appears 3 times
}

TEST(TableTest, DistinctCount) {
  Table t = MakeKeyTable();
  EXPECT_EQ(t.DistinctCount("k"), 3u);
  EXPECT_EQ(t.DistinctCount("v"), 3u);
}

TEST(TableTest, StatsAreCachedAndStable) {
  Table t = MakeKeyTable();
  EXPECT_EQ(t.MaxFrequency("k"), t.MaxFrequency("k"));
}

TEST(PlanTest, FactoriesBuildExpectedKinds) {
  auto scan = ScanPlan("t");
  EXPECT_EQ(scan->kind, PlanKind::kScan);
  auto filter = FilterPlan(scan, Eq(Col("k"), Lit(int64_t{1})));
  EXPECT_EQ(filter->kind, PlanKind::kFilter);
  auto join = JoinPlan(scan, scan, "k", "k");
  EXPECT_EQ(join->kind, PlanKind::kJoin);
  auto count = CountPlan(filter);
  EXPECT_EQ(count->kind, PlanKind::kAggregate);
  EXPECT_EQ(count->agg, AggKind::kCount);
  auto sum = SumPlan(scan, Col("k"));
  EXPECT_EQ(sum->agg, AggKind::kSum);
}

TEST(PlanTest, AnalyzeCountsOperators) {
  auto plan = CountPlan(FilterPlan(
      JoinPlan(FilterPlan(ScanPlan("a"), Eq(Col("x"), Lit(int64_t{1}))),
               ScanPlan("b"), "x", "y"),
      Eq(Col("y"), Lit(int64_t{2}))));
  PlanStats stats = AnalyzePlan(plan);
  EXPECT_EQ(stats.num_joins, 1u);
  EXPECT_EQ(stats.num_filters, 2u);
  EXPECT_EQ(stats.num_scans, 2u);
  EXPECT_TRUE(stats.has_aggregate);
  EXPECT_EQ(stats.agg, AggKind::kCount);
  EXPECT_EQ(stats.tables.size(), 2u);
}

TEST(PlanTest, ToStringRendersStructure) {
  auto plan = CountPlan(JoinPlan(ScanPlan("a"), ScanPlan("b"), "x", "y"));
  std::string s = PlanToString(plan);
  EXPECT_EQ(s, "Count(Join(Scan(a), Scan(b), x=y))");
}

TEST(PlanTest, OwningTableResolvesThroughJoins) {
  Table users("users", Schema({{"uid", ValueType::kInt}}), {});
  Table clicks("clicks", Schema({{"cid", ValueType::kInt},
                                 {"uid_ref", ValueType::kInt}}),
               {});
  Catalog catalog{{"users", &users}, {"clicks", &clicks}};
  auto plan = JoinPlan(ScanPlan("users"), ScanPlan("clicks"), "uid",
                       "uid_ref");
  EXPECT_EQ(OwningTable(plan, "uid", catalog), "users");
  EXPECT_EQ(OwningTable(plan, "uid_ref", catalog), "clicks");
  EXPECT_EQ(OwningTable(plan, "absent", catalog), "");
}

TEST(PlanTest, OwningTableAmbiguousReturnsEmpty) {
  Table a("a", Schema({{"k", ValueType::kInt}}), {});
  Table b("b", Schema({{"k", ValueType::kInt}}), {});
  Catalog catalog{{"a", &a}, {"b", &b}};
  auto plan = JoinPlan(ScanPlan("a"), ScanPlan("b"), "k", "k");
  EXPECT_EQ(OwningTable(plan, "k", catalog), "");
}

class CheckPlanColumnsTest : public ::testing::Test {
 protected:
  Table users_{"users", Schema({{"uid", ValueType::kInt},
                                {"age", ValueType::kInt}}),
               {}};
  Table clicks_{"clicks", Schema({{"cid", ValueType::kInt},
                                  {"uid_ref", ValueType::kInt}}),
                {}};
  Catalog catalog_{{"users", &users_}, {"clicks", &clicks_}};

  PlanPtr Joined(const std::string& left_key, const std::string& right_key) {
    PlanPtr adults =
        FilterPlan(ScanPlan("users"), Gt(Col("age"), Lit(int64_t{30})));
    return JoinPlan(adults, ScanPlan("clicks"), left_key, right_key);
  }
};

TEST_F(CheckPlanColumnsTest, AcceptsAPlanWhoseColumnsAllExist) {
  EXPECT_TRUE(CheckPlanColumns(SumPlan(Joined("uid", "uid_ref"), Col("cid")),
                               catalog_)
                  .ok());
}

TEST_F(CheckPlanColumnsTest, RejectsAnUnknownFilterColumn) {
  auto plan = CountPlan(
      FilterPlan(ScanPlan("users"), Gt(Col("bogus"), Lit(int64_t{1}))));
  Status status = CheckPlanColumns(plan, catalog_);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bogus"), std::string::npos);
}

TEST_F(CheckPlanColumnsTest, RejectsAnUnknownAggregateColumn) {
  // The column exists in the catalog, but not under this plan's scans.
  Status status =
      CheckPlanColumns(SumPlan(ScanPlan("users"), Col("cid")), catalog_);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("cid"), std::string::npos);
}

TEST_F(CheckPlanColumnsTest, RejectsAnUnknownJoinKey) {
  Status left = CheckPlanColumns(CountPlan(Joined("bogus", "uid_ref")),
                                 catalog_);
  EXPECT_EQ(left.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(left.message().find("bogus"), std::string::npos);
  // A key that exists only on the other side does not count.
  Status right = CheckPlanColumns(CountPlan(Joined("uid", "uid")), catalog_);
  EXPECT_EQ(right.code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckPlanColumnsTest, RejectsAnUnknownTable) {
  Status status = CheckPlanColumns(CountPlan(ScanPlan("nope")), catalog_);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace upa::rel
