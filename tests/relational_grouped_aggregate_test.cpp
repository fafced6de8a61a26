// Grouped aggregates (PlanNode::group_by, relational/group_by.h): every
// engine — row oracle, interpreted columnar, fused columnar — against a
// brute-force std::map group-by over Table::rows(), across thread counts
// {1, 4} × fragment sizes {7, 64K}; plus the plan plumbing (fingerprint,
// rendering, column checks, optimizer) and the SQL surface (no group cap,
// NaN / signed-zero keys). Suite names match the CI sanitizer filters
// (GroupedAggregate).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/exact_sum.h"
#include "engine/context.h"
#include "relational/columnar.h"
#include "relational/executor.h"
#include "relational/fused.h"
#include "relational/group_by.h"
#include "relational/optimizer.h"
#include "relational/sql_exec.h"
#include "tpch/generator.h"

namespace upa::rel {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

struct GlobalConfigGuard {
  size_t fragment_rows = DefaultFragmentRows();
  ~GlobalConfigGuard() { SetDefaultFragmentRows(fragment_rows); }
};

// -- Brute force -------------------------------------------------------------

/// The brute-force spec of one grouped aggregate: the relation's rows (a
/// table's rows, or the equi-join's concatenated pairs), WHERE, then a
/// std::map keyed on canonical key tuples under TotalOrderCompare.
struct BruteQuery {
  std::vector<Row> rows;
  Schema schema;
  ExprPtr where;  // may be null
  AggKind agg = AggKind::kCount;
  ExprPtr expr;  // null for COUNT
  std::vector<std::string> keys;
};

struct KeyLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t k = 0; k < a.size(); ++k) {
      const int c = TotalOrderCompare(a[k], b[k]);
      if (c != 0) return c < 0;
    }
    return false;
  }
};

ExecResult BruteForce(const BruteQuery& q) {
  struct Acc {
    size_t rows = 0;
    ExactSum sum;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
  };
  std::map<Row, Acc, KeyLess> groups;
  auto keep = q.where ? BindPredicate(q.where, q.schema) : nullptr;
  auto weight = q.expr ? BindNumeric(q.expr, q.schema) : nullptr;
  for (const Row& row : q.rows) {
    if (keep && !keep(row)) continue;
    Row key;
    for (const std::string& k : q.keys) {
      key.push_back(CanonicalKey(row[q.schema.IndexOf(k)]));
    }
    Acc& acc = groups[key];
    ++acc.rows;
    const double w = weight ? weight(row) : 1.0;
    acc.sum.Add(w);
    acc.mn = std::min(acc.mn, w);
    acc.mx = std::max(acc.mx, w);
  }
  ExecResult out;
  for (const auto& [key, acc] : groups) {
    const double n = static_cast<double>(acc.rows);
    double v = n;
    switch (q.agg) {
      case AggKind::kCount: v = n; break;
      case AggKind::kSum: v = acc.sum.Round(); break;
      case AggKind::kAvg: v = acc.sum.Round() / n; break;
      case AggKind::kMin: v = acc.mn; break;
      case AggKind::kMax: v = acc.mx; break;
    }
    out.group_keys.push_back(key);
    out.group_outputs.push_back(v);
    out.group_rows.push_back(acc.rows);
    out.result_rows += acc.rows;
  }
  return out;
}

std::vector<Row> JoinRows(const Table& left, const std::string& lkey,
                          const Table& right, const std::string& rkey) {
  const size_t li = left.schema().IndexOf(lkey);
  const size_t ri = right.schema().IndexOf(rkey);
  std::unordered_multimap<int64_t, const Row*> build;
  for (const Row& r : right.rows()) build.emplace(AsInt(r[ri]), &r);
  std::vector<Row> out;
  for (const Row& l : left.rows()) {
    auto [b, e] = build.equal_range(AsInt(l[li]));
    for (auto it = b; it != e; ++it) {
      Row row = l;
      row.insert(row.end(), it->second->begin(), it->second->end());
      out.push_back(std::move(row));
    }
  }
  return out;
}

PlanPtr AggPlan(PlanPtr rel, AggKind agg, ExprPtr expr) {
  switch (agg) {
    case AggKind::kCount: return CountPlan(std::move(rel));
    case AggKind::kSum: return SumPlan(std::move(rel), std::move(expr));
    case AggKind::kAvg: return AvgPlan(std::move(rel), std::move(expr));
    case AggKind::kMin: return MinPlan(std::move(rel), std::move(expr));
    case AggKind::kMax: return MaxPlan(std::move(rel), std::move(expr));
  }
  return nullptr;
}

void ExpectSameGroups(const ExecResult& want, const ExecResult& got,
                      const std::string& what) {
  ASSERT_EQ(want.group_keys.size(), got.group_keys.size()) << what;
  EXPECT_EQ(want.result_rows, got.result_rows) << what;
  for (size_t g = 0; g < want.group_keys.size(); ++g) {
    ASSERT_EQ(want.group_keys[g].size(), got.group_keys[g].size()) << what;
    for (size_t k = 0; k < want.group_keys[g].size(); ++k) {
      const Value& a = want.group_keys[g][k];
      const Value& b = got.group_keys[g][k];
      ASSERT_EQ(a.index(), b.index()) << what << " group " << g;
      if (std::holds_alternative<double>(a)) {
        EXPECT_EQ(Bits(std::get<double>(a)), Bits(std::get<double>(b)))
            << what << " group " << g;
      } else {
        EXPECT_EQ(a, b) << what << " group " << g;
      }
    }
    EXPECT_EQ(Bits(want.group_outputs[g]), Bits(got.group_outputs[g]))
        << what << " group " << g;
    EXPECT_EQ(want.group_rows[g], got.group_rows[g]) << what << " group " << g;
  }
}

/// Runs `plan` on every engine × threads {1,4} × fragment size {7, 64K}
/// and compares each result with `want`.
void ExpectAllEnginesMatch(const Catalog& catalog, const PlanPtr& plan,
                           const ExecResult& want, const std::string& what) {
  GlobalConfigGuard guard;
  for (size_t frag : {size_t{7}, size_t{64} * 1024}) {
    SetDefaultFragmentRows(frag);
    for (const auto& [name, table] : catalog) table->ReleaseCaches();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      engine::ExecContext ctx(engine::ExecConfig{
          .threads = threads, .default_partitions = threads});
      PlanExecutor exec(&ctx, &catalog);
      struct Mode {
        const char* name;
        ExecEngine engine;
        FuseMode fuse;
      };
      for (const Mode& m :
           {Mode{"row", ExecEngine::kRowOracle, FuseMode::kAuto},
            Mode{"interpreted", ExecEngine::kColumnar, FuseMode::kInterpret},
            Mode{"fused", ExecEngine::kColumnar, FuseMode::kFuse}}) {
        ExecOptions opts;
        opts.engine = m.engine;
        const std::string label = what + " [" + m.name + " frag=" +
                                  std::to_string(frag) +
                                  " threads=" + std::to_string(threads) + "]";
        Result<ExecResult> r = exec.Execute(WithFuseMode(plan, m.fuse), opts);
        ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
        ExpectSameGroups(want, r.value(), label);
      }
    }
  }
}

const tpch::TpchDataset& Data() {
  static const tpch::TpchDataset data(
      tpch::TpchConfig{.num_orders = 400, .seed = 5});
  return data;
}

// -- Engines vs brute force --------------------------------------------------

TEST(GroupedAggregateTest, EveryAggregatePerGroupMatchesBruteForce) {
  const Table& li = Data().lineitem();
  Catalog catalog = Data().catalog();
  const ExprPtr where = Lt(Col("l_shipdate"), Lit(int64_t{1800}));
  for (const std::vector<std::string>& keys :
       std::vector<std::vector<std::string>>{{"l_returnflag"},
                                             {"l_suppkey"},
                                             {"l_partkey"},
                                             {"l_returnflag", "l_suppkey"}}) {
    for (AggKind agg : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                        AggKind::kMin, AggKind::kMax}) {
      ExprPtr expr = agg == AggKind::kCount
                         ? nullptr
                         : Mul(Col("l_extendedprice"), Col("l_discount"));
      BruteQuery q{li.rows(), li.schema(), where, agg, expr, keys};
      const ExecResult want = BruteForce(q);
      ASSERT_GT(want.group_keys.size(), 1u);
      PlanPtr plan = WithGroupBy(
          AggPlan(FilterPlan(ScanPlan("lineitem"), where), agg, expr), keys);
      ExpectAllEnginesMatch(catalog, plan, want, PlanToString(plan));
    }
  }
}

TEST(GroupedAggregateTest, KeysFromEitherSideOfAJoin) {
  const tpch::TpchDataset& data = Data();
  Catalog catalog = data.catalog();
  std::vector<Row> rows =
      JoinRows(data.orders(), "o_orderkey", data.lineitem(), "l_orderkey");
  const Schema schema =
      Schema::Concat(data.orders().schema(), data.lineitem().schema());
  const ExprPtr where = Ge(Col("l_shipdate"), Lit(int64_t{600}));
  for (const std::vector<std::string>& keys :
       std::vector<std::vector<std::string>>{
           {"o_custkey"}, {"l_suppkey"}, {"o_orderpriority", "l_returnflag"}}) {
    for (AggKind agg : {AggKind::kCount, AggKind::kSum, AggKind::kMax}) {
      ExprPtr expr = agg == AggKind::kCount ? nullptr : Col("l_extendedprice");
      BruteQuery q{rows, schema, where, agg, expr, keys};
      const ExecResult want = BruteForce(q);
      ASSERT_GT(want.group_keys.size(), 1u);
      PlanPtr join = JoinPlan(ScanPlan("orders"), ScanPlan("lineitem"),
                              "o_orderkey", "l_orderkey");
      PlanPtr plan = WithGroupBy(AggPlan(FilterPlan(join, where), agg, expr),
                                 keys);
      ExpectAllEnginesMatch(catalog, plan, want, PlanToString(plan));
      // The optimizer pushes the filter down and may reorder the join; the
      // grouped root and its keys must come through unchanged.
      PlanPtr optimized = Optimize(plan, catalog, OptimizerOptions{});
      EXPECT_EQ(optimized->group_by, keys);
      ExpectAllEnginesMatch(catalog, optimized,
                            want, "optimized " + PlanToString(optimized));
    }
  }
}

Schema KeyValueSchema() {
  return Schema({{"k", ValueType::kDouble}, {"v", ValueType::kDouble}});
}

/// Double keys holding both zeros (-0.0 first), two NaN payloads and
/// ordinary values; v is the row index.
std::vector<Row> SignedZeroNanRows() {
  const double other_nan = std::bit_cast<double>(0x7ff8'0000'0000'1234ULL);
  const double keys[] = {-0.0, 1.5, kNan, 0.0, 1.5, other_nan, -0.0, 2.5,
                         kNan, 0.0};
  std::vector<Row> rows;
  for (size_t i = 0; i < std::size(keys); ++i) {
    rows.push_back({Value{keys[i]}, Value{static_cast<double>(i)}});
  }
  return rows;
}

TEST(GroupedAggregateTest, NanAndSignedZeroKeysFormOneGroupEach) {
  Table t("t", KeyValueSchema(), SignedZeroNanRows());
  Catalog catalog{{"t", &t}};
  for (AggKind agg : {AggKind::kCount, AggKind::kSum, AggKind::kMin}) {
    ExprPtr expr = agg == AggKind::kCount ? nullptr : Col("v");
    BruteQuery q{t.rows(), t.schema(), nullptr, agg, expr, {"k"}};
    const ExecResult want = BruteForce(q);
    // {0.0 (four rows), 1.5, 2.5, NaN (three rows)}, keys canonical.
    ASSERT_EQ(want.group_keys.size(), 4u);
    EXPECT_EQ(Bits(std::get<double>(want.group_keys[0][0])), Bits(0.0));
    EXPECT_EQ(want.group_rows[0], 4u);
    EXPECT_TRUE(std::isnan(std::get<double>(want.group_keys[3][0])));
    EXPECT_EQ(want.group_rows[3], 3u);
    ExpectAllEnginesMatch(catalog,
                          WithGroupBy(AggPlan(ScanPlan("t"), agg, expr), {"k"}),
                          want, "signed zero / NaN keys");
  }
}

TEST(GroupedAggregateTest, WhereThatLeavesNoRowsYieldsNoGroups) {
  Catalog catalog = Data().catalog();
  const ExprPtr where = Lt(Col("l_quantity"), Lit(-1.0));
  for (AggKind agg : {AggKind::kCount, AggKind::kAvg, AggKind::kMin}) {
    ExprPtr expr = agg == AggKind::kCount ? nullptr : Col("l_quantity");
    PlanPtr plan = WithGroupBy(
        AggPlan(FilterPlan(ScanPlan("lineitem"), where), agg, expr),
        {"l_returnflag"});
    // No groups, and no "empty relation" error for AVG/MIN: a grouped
    // aggregate over nothing is simply no groups.
    ExpectAllEnginesMatch(catalog, plan, ExecResult{}, PlanToString(plan));
  }
}

TEST(GroupedAggregateTest, ProvenanceOptionsAreUnsupportedOnEveryEngine) {
  Catalog catalog = Data().catalog();
  engine::ExecContext ctx(engine::ExecConfig{.threads = 2});
  PlanExecutor exec(&ctx, &catalog);
  PlanPtr plan =
      WithGroupBy(SumPlan(ScanPlan("lineitem"), Col("l_quantity")),
                  {"l_returnflag"});
  const std::vector<size_t> some_rows = {0, 1, 2};
  std::vector<ExecOptions> provenance(5);
  provenance[0].private_table = "lineitem";
  provenance[1].include_rows = &some_rows;
  provenance[2].exclude_rows = &some_rows;
  provenance[3].partitions = 4;
  provenance[4].track_contributions = true;
  for (ExecOptions opts : provenance) {
    for (ExecEngine engine : {ExecEngine::kRowOracle, ExecEngine::kColumnar}) {
      for (FuseMode fuse : {FuseMode::kInterpret, FuseMode::kFuse}) {
        opts.engine = engine;
        Result<ExecResult> r = exec.Execute(WithFuseMode(plan, fuse), opts);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
      }
    }
  }
}

TEST(GroupedAggregateTest, UnknownGroupKeyIsInvalidArgumentOnEveryEngine) {
  Catalog catalog = Data().catalog();
  engine::ExecContext ctx(engine::ExecConfig{.threads = 2});
  PlanExecutor exec(&ctx, &catalog);
  PlanPtr plan = WithGroupBy(CountPlan(ScanPlan("lineitem")), {"l_bogus"});
  for (ExecEngine engine : {ExecEngine::kRowOracle, ExecEngine::kColumnar}) {
    for (FuseMode fuse : {FuseMode::kInterpret, FuseMode::kFuse}) {
      ExecOptions opts;
      opts.engine = engine;
      Result<ExecResult> r = exec.Execute(WithFuseMode(plan, fuse), opts);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// -- Plan plumbing -------------------------------------------------------------

TEST(GroupedAggregatePlanTest, FingerprintAndRenderingCoverTheKeys) {
  Catalog catalog = Data().catalog();
  PlanPtr scalar = SumPlan(ScanPlan("lineitem"), Col("l_quantity"));
  PlanPtr by_flag = WithGroupBy(scalar, {"l_returnflag"});
  PlanPtr by_both = WithGroupBy(scalar, {"l_returnflag", "l_suppkey"});
  PlanPtr by_both_swapped = WithGroupBy(scalar, {"l_suppkey", "l_returnflag"});
  const uint64_t f0 = PlanFingerprint(scalar, catalog);
  EXPECT_NE(f0, PlanFingerprint(by_flag, catalog));
  EXPECT_NE(PlanFingerprint(by_flag, catalog),
            PlanFingerprint(by_both, catalog));
  EXPECT_NE(PlanFingerprint(by_both, catalog),
            PlanFingerprint(by_both_swapped, catalog));
  EXPECT_EQ(PlanFingerprint(by_both, catalog),
            PlanFingerprint(WithGroupBy(scalar, {"l_returnflag", "l_suppkey"}),
                            catalog));
  EXPECT_EQ(f0, PlanFingerprint(WithGroupBy(by_flag, {}), catalog));

  EXPECT_EQ(PlanToString(scalar), "Sum(Scan(lineitem), l_quantity)");
  EXPECT_EQ(PlanToString(by_both),
            "Sum(Scan(lineitem), l_quantity) BY l_returnflag, l_suppkey");
}

TEST(GroupedAggregatePlanTest, ColumnChecksAndOwnersResolveTheKeys) {
  Catalog catalog = Data().catalog();
  PlanPtr join = JoinPlan(ScanPlan("orders"), ScanPlan("lineitem"),
                          "o_orderkey", "l_orderkey");
  PlanPtr plan = WithGroupBy(CountPlan(join), {"o_custkey", "l_suppkey"});
  EXPECT_TRUE(CheckPlanColumns(plan, catalog).ok());
  EXPECT_EQ(OwningTable(plan, "o_custkey", catalog), "orders");
  EXPECT_EQ(OwningTable(plan, "l_suppkey", catalog), "lineitem");

  Status bad = CheckPlanColumns(
      WithGroupBy(CountPlan(join), {"o_custkey", "x_nope"}), catalog);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("x_nope"), std::string::npos);
}

TEST(GroupedAggregatePlanTest, OptimizerKeepsTheKeysAndMarksFusibleRoots) {
  Catalog catalog = Data().catalog();
  PlanPtr plan = WithGroupBy(
      SumPlan(FilterPlan(ScanPlan("lineitem"),
                         And(Lt(Col("l_quantity"), Lit(20.0)),
                             Eq(Col("l_returnflag"), Lit("R")))),
              Col("l_extendedprice")),
      {"l_partkey"});
  ASSERT_TRUE(FusableShape(plan).has_value());
  PlanPtr optimized = Optimize(plan, catalog, OptimizerOptions{});
  EXPECT_EQ(optimized->group_by, std::vector<std::string>{"l_partkey"});
  EXPECT_EQ(optimized->fuse, FuseMode::kFuse);
  EXPECT_TRUE(FusableShape(optimized).has_value());
  EXPECT_EQ(WithFuseMode(optimized, FuseMode::kInterpret)->group_by,
            optimized->group_by);
}

// -- SQL surface ---------------------------------------------------------------

TEST(GroupedAggregateSqlTest, MoreThan4096GroupsSucceed) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 6000; ++i) {
    rows.push_back({Value{(i * 7919) % 5000}, Value{static_cast<double>(i)}});
  }
  Table t("t", Schema({{"k", ValueType::kInt}, {"v", ValueType::kDouble}}),
          rows);
  Catalog catalog{{"t", &t}};
  engine::ExecContext ctx(engine::ExecConfig{.threads = 2});
  Result<SqlResultSet> r = ExecuteSql(
      &ctx, catalog, "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 5000u);
  // First-appearance order: row i holds key (i * 7919) % 5000.
  for (int64_t i = 0; i < 5000; ++i) {
    const Row& row = r.value().rows[i];
    ASSERT_EQ(std::get<int64_t>(row[0]), (i * 7919) % 5000);
    const double want_count = i < 1000 ? 2.0 : 1.0;
    const double want_sum = i < 1000 ? static_cast<double>(i + i + 5000)
                                     : static_cast<double>(i);
    EXPECT_EQ(std::get<double>(row[1]), want_count);
    EXPECT_EQ(std::get<double>(row[2]), want_sum);
  }
}

TEST(GroupedAggregateSqlTest, KeysReportTheirFirstAppearanceInTheTable) {
  Table t("t", KeyValueSchema(), SignedZeroNanRows());
  Catalog catalog{{"t", &t}};
  engine::ExecContext ctx(engine::ExecConfig{.threads = 2});
  for (ExecEngine engine : {ExecEngine::kRowOracle, ExecEngine::kColumnar}) {
    SqlExecOptions opts;
    opts.exec.engine = engine;
    Result<SqlResultSet> r = ExecuteSql(
        &ctx, catalog, "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k", opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const std::vector<Row>& rows = r.value().rows;
    ASSERT_EQ(rows.size(), 4u);
    // Table order of first appearance: -0.0 (row 0), 1.5, NaN, 2.5. The
    // zero group reports -0.0, the table's first zero; the NaN group holds
    // exactly the three NaN rows (2, 5, 8).
    EXPECT_EQ(Bits(std::get<double>(rows[0][0])), Bits(-0.0));
    EXPECT_EQ(std::get<double>(rows[0][1]), 4.0);
    EXPECT_EQ(std::get<double>(rows[0][2]), 0.0 + 3 + 6 + 9);
    EXPECT_EQ(std::get<double>(rows[1][0]), 1.5);
    EXPECT_TRUE(std::isnan(std::get<double>(rows[2][0])));
    EXPECT_EQ(Bits(std::get<double>(rows[2][0])), Bits(kNan));
    EXPECT_EQ(std::get<double>(rows[2][1]), 3.0);
    EXPECT_EQ(std::get<double>(rows[2][2]), 2.0 + 5 + 8);
    EXPECT_EQ(std::get<double>(rows[3][0]), 2.5);
  }
}

}  // namespace
}  // namespace upa::rel
