// Unit test of the benchmark's checker: made-up wrong answers must make it
// fire, made-up right ones must not. Runs without any server.
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "oracle.h"
#include "tpch/generator.h"

namespace dpbench {

namespace {

int g_failures = 0;

void Expect(bool condition, const std::string& what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++g_failures;
}

double Laplace(std::mt19937_64& rng, double scale) {
  std::uniform_real_distribution<double> u(-0.5, 0.5);
  double x = u(rng);
  return -scale * (x < 0 ? -1.0 : 1.0) * std::log(1.0 - 2.0 * std::fabs(x));
}

rel::Row GroupResultRow(rel::Value key, double n, double s) {
  return rel::Row{std::move(key), rel::Value{n}, rel::Value{s}};
}

void ReleaseChecks() {
  std::mt19937_64 rng(7);
  const ReleaseTruth count{3077.0, 1.0};
  const ReleaseTruth sum{2.04e8, 55000.0};

  {
    ReleaseChecker c(1.0);
    for (int i = 0; i < 2000; ++i) {
      c.Observe("count", count, count.value + Laplace(rng, 1.0), true);
      c.Observe("sum", sum, sum.value - sum.delta + Laplace(rng, 2 * 55000.0),
                true);
    }
    Expect(c.Finish().empty(),
           "Laplace releases (incl. clamp shift, 2x scale) pass");
  }
  {
    ReleaseChecker c(1.0);
    // SUM released with COUNT's cached range.
    c.Observe("sum", sum, 7996.96, true);
    Expect(!c.Finish().empty(), "release calibrated to another query fires");
  }
  {
    ReleaseChecker c(1.0);
    c.Observe("count", count, count.value + 100.0 * c.Bound(count), true);
    Expect(!c.Finish().empty(), "release far outside the tail bound fires");
  }
  {
    ReleaseChecker c(1.0);
    c.Observe("count", count, std::nan(""), true);
    Expect(!c.Finish().empty(), "NaN release fires");
  }
  {
    ReleaseChecker c(1.0);
    for (int i = 0; i < 50; ++i) {
      c.Observe("count", count, count.value + 0.5, true);
    }
    Expect(!c.Finish().empty(), "identical releases of one shape fire");
  }
  {
    ReleaseChecker c(1.0);
    // Each release is inside the per-release bound, but all are shifted by
    // 3Δ: noise must be symmetric around a value at most Δ from f(x).
    for (int i = 0; i < 2000; ++i) {
      c.Observe("count", count, count.value + 3.0 + Laplace(rng, 1.0), true);
    }
    Expect(!c.Finish().empty(), "biased releases fire the mean check");
  }
  {
    ReleaseChecker c(0.1);
    // Noise scaled to 100Δ/ε (wrong sensitivity) breaks the bound quickly.
    for (int i = 0; i < 200; ++i) {
      c.Observe("count", count, count.value + Laplace(rng, 100.0 / 0.1), true);
    }
    Expect(!c.Finish().empty(), "noise calibrated to 100x the sensitivity fires");
  }
  {
    ReleaseChecker c(1.0);
    Expect(!c.Finish().empty(), "no release at all fires");
  }
  {
    ReleaseChecker c(1.0);
    c.Observe("count", count, count.value + 0.5, false);
    c.Observe("count", count, count.value - 0.5, false);
    Expect(!c.Finish().empty(), "releases only in the warm-up fire");
  }
  {
    ReleaseChecker c(1.0);
    c.Expect("count");
    c.Expect("sum");
    for (int i = 0; i < 50; ++i) {
      c.Observe("count", count, count.value + Laplace(rng, 1.0), true);
    }
    Expect(!c.Finish().empty(), "an expected shape without releases fires");
  }
  Expect(CheckCounts(100, 0).empty(), "counts: no failed operation passes");
  Expect(!CheckCounts(100, 1).empty(), "counts: one failed operation fires");
  Expect(!CheckCounts(100, 100).empty(),
         "counts: every operation refused fires");
  Expect(!CheckCounts(0, 0).empty(), "counts: nothing attempted fires");
  Expect(SpentMatches(512.0, 512, 1.0), "budget: ε × releases matches");
  Expect(!SpentMatches(513.0, 512, 1.0), "budget: one extra charge fires");
  Expect(!SpentMatches(511.0, 512, 1.0), "budget: one missing charge fires");
}

void GroupChecks() {
  GroupShape shape;
  shape.label = "test";
  shape.table = "lineitem";
  shape.key = "l_suppkey";
  shape.sum = true;
  shape.sum_column = "l_quantity";
  shape.order = GroupShape::Order::kSumDesc;
  shape.limit = 2;
  const std::vector<GroupRow> expected = {
      {rel::Value{int64_t{3}}, 4.0, 300.0},
      {rel::Value{int64_t{1}}, 2.0, 200.0},
      {rel::Value{int64_t{2}}, 5.0, 100.0},
  };
  auto result = [](std::vector<rel::Row> rows) {
    rel::SqlResultSet r;
    r.columns = {"l_suppkey", "n", "s"};
    r.rows = std::move(rows);
    return r;
  };
  const rel::Value k1{int64_t{1}}, k2{int64_t{2}}, k3{int64_t{3}};

  Expect(CompareGroups(shape, expected,
                       result({GroupResultRow(k3, 4, 300),
                               GroupResultRow(k1, 2, 200)}))
             .empty(),
         "grouped: correct result passes");
  Expect(CompareGroups(shape, expected,
                       result({GroupResultRow(k3, 4, 300 * (1 + 1e-13)),
                               GroupResultRow(k1, 2, 200)}))
             .empty(),
         "grouped: sum within 1e-9 relative passes");
  Expect(!CompareGroups(shape, expected,
                        result({GroupResultRow(k3, 5, 300),
                                GroupResultRow(k1, 2, 200)}))
              .empty(),
         "grouped: wrong count fires");
  Expect(!CompareGroups(shape, expected,
                        result({GroupResultRow(k3, 4, 300 * (1 + 1e-6)),
                                GroupResultRow(k1, 2, 200)}))
              .empty(),
         "grouped: sum off by 1e-6 relative fires");
  Expect(!CompareGroups(shape, expected,
                        result({GroupResultRow(k1, 2, 200),
                                GroupResultRow(k3, 4, 300)}))
              .empty(),
         "grouped: wrong order fires");
  Expect(!CompareGroups(shape, expected,
                        result({GroupResultRow(k3, 4, 300),
                                GroupResultRow(k2, 5, 100)}))
              .empty(),
         "grouped: LIMIT keeping the wrong group fires");
  Expect(!CompareGroups(shape, expected, result({GroupResultRow(k3, 4, 300)}))
              .empty(),
         "grouped: missing row fires");
  Expect(!CompareGroups(shape, expected,
                        result({GroupResultRow(k3, 4, 300),
                                GroupResultRow(rel::Value{int64_t{9}}, 2, 200)}))
              .empty(),
         "grouped: unknown group fires");

  // Sums that tie within tolerance may come in either order.
  const std::vector<GroupRow> tied = {
      {rel::Value{int64_t{1}}, 1.0, 100.0},
      {rel::Value{int64_t{2}}, 1.0, 100.0 * (1 + 1e-14)},
  };
  GroupShape all = shape;
  all.limit = -1;
  Expect(CompareGroups(all, tied,
                       result({GroupResultRow(k2, 1, 100.0 * (1 + 1e-14)),
                               GroupResultRow(k1, 1, 100.0)}))
             .empty(),
         "grouped: near-tied sums in either order pass");
}

void OracleChecks() {
  upa::tpch::TpchConfig cfg;
  cfg.num_orders = 300;
  cfg.seed = 11;
  upa::tpch::TpchDataset data(cfg);
  Oracle oracle(data);

  ReleaseShape orders;
  orders.label = "orders";
  orders.private_table = orders.table = "orders";
  ReleaseTruth t = oracle.Evaluate(orders);
  Expect(t.value == 300.0 && t.delta == 1.0,
         "oracle: COUNT(*) FROM orders = 300, Δ = 1");

  ReleaseShape join;
  join.label = "join";
  join.private_table = "orders";
  join.join = true;
  t = oracle.Evaluate(join);
  Expect(t.value == static_cast<double>(data.lineitem().NumRows()),
         "oracle: join count = |lineitem|");
  Expect(t.delta >= 1.0 &&
             t.delta <= static_cast<double>(cfg.max_lineitems_per_order),
         "oracle: join Δ for private orders is the largest fan-out");

  GroupShape flags;
  flags.label = "flags";
  flags.table = "lineitem";
  flags.key = "l_returnflag";
  std::vector<GroupRow> groups = oracle.EvaluateGroups(flags);
  double total = 0.0;
  for (const GroupRow& g : groups) total += g.count;
  Expect(groups.size() == 2 &&
             total == static_cast<double>(data.lineitem().NumRows()),
         "oracle: GROUP BY l_returnflag covers every lineitem in 2 groups");
}

}  // namespace

int RunSelfTest() {
  ReleaseChecks();
  GroupChecks();
  OracleChecks();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace dpbench
