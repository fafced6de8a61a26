// Row interpreter vs columnar engine: wall-clock per TPC-H plan query and
// per UPA phase-run bundle (the S' / sample / domain executions of
// src/queries/plan_query.cpp), fused vs interpreted filter chains, and a
// high-cardinality GROUP BY (one grouped pass vs per-group enumeration),
// plus a bit-identity check on every output.
//
// Emits machine-readable JSON to BENCH_exec.json (override the path with
// UPA_BENCH_JSON) so the perf trajectory of the execution layer can be
// tracked PR-over-PR. Knobs: UPA_ORDERS, UPA_RUNS, UPA_SAMPLE_N,
// UPA_THREADS, UPA_SEED (src/bench_util/harness.h).
//
// Timing protocol: per-query numbers run with the scan cache OFF so they
// measure execution, not memoization (Table::Columnar() is still built
// once — that is a property of the storage layer, not of a run). Phase
// bundles run with the cache ON through a fresh block cache per
// repetition, exactly like the runner: the three phases of one run share
// the public subtrees, independent runs share nothing. All numbers are the
// minimum over UPA_RUNS repetitions.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/harness.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "relational/executor.h"
#include "relational/optimizer.h"
#include "relational/sql_parser.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

using namespace upa;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Timed {
  double seconds = 0.0;
  rel::ExecResult result;
};

// Best-of-`runs` execution of `plan` under `opts`.
Timed TimeQuery(const rel::PlanExecutor& exec, const rel::PlanPtr& plan,
                rel::ExecOptions opts, size_t runs) {
  Timed best;
  best.seconds = 1e100;
  for (size_t r = 0; r < runs; ++r) {
    double t0 = Now();
    Result<rel::ExecResult> res = exec.Execute(plan, opts);
    double dt = Now() - t0;
    UPA_CHECK_MSG(res.ok(), "bench query failed: " + res.status().ToString());
    if (dt < best.seconds) {
      best.seconds = dt;
      best.result = std::move(res).value();
    }
  }
  return best;
}

// One UPA phase bundle: the three executions MakePlanQuery issues per run,
// sharing one block cache. Returns the best total over `runs` repetitions
// (each repetition gets a fresh cache, so nothing carries over).
double TimePhaseBundle(const rel::PlanExecutor& exec,
                       const tpch::TpchDataset& data,
                       const tpch::TpchQuery& q, rel::ExecEngine engine,
                       size_t sample_n, size_t runs, uint64_t seed) {
  const size_t n = data.table(q.private_table).NumRows();
  Rng rng = Rng::ForStream(seed, "bench_exec/phases/" + q.name);
  std::vector<size_t> sample =
      rng.SampleWithoutReplacement(n, std::min(sample_n, n));
  std::vector<rel::Row> domain_rows;
  for (size_t i = 0; i < std::min(sample_n, n); ++i) {
    domain_rows.push_back(data.SampleRow(q.private_table, rng));
  }

  double best = 1e100;
  for (size_t r = 0; r < runs; ++r) {
    engine::BlockCache cache(nullptr);
    double t0 = Now();
    {
      rel::ExecOptions opts;  // S'
      opts.engine = engine;
      opts.private_table = q.private_table;
      opts.exclude_rows = &sample;
      opts.partitions = 4;
      opts.cache = &cache;
      UPA_CHECK(exec.Execute(q.plan, opts).ok());
    }
    {
      rel::ExecOptions opts;  // sample
      opts.engine = engine;
      opts.private_table = q.private_table;
      opts.include_rows = &sample;
      opts.track_contributions = true;
      opts.cache = &cache;
      UPA_CHECK(exec.Execute(q.plan, opts).ok());
    }
    {
      rel::ExecOptions opts;  // domain
      opts.engine = engine;
      opts.private_table = q.private_table;
      opts.replace_private_rows = &domain_rows;
      opts.track_contributions = true;
      opts.cache = &cache;
      UPA_CHECK(exec.Execute(q.plan, opts).ok());
    }
    best = std::min(best, Now() - t0);
  }
  return best;
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main() {
  bench::BenchEnv env = bench::BenchEnv::FromEnv();
  bench::PrintBanner("Row interpreter vs columnar engine", env);

  tpch::TpchDataset data(tpch::TpchConfig{.num_orders = env.orders,
                                          .max_lineitems_per_order = 7,
                                          .reference_skew = 1.1,
                                          .seed = env.seed});
  rel::Catalog catalog = data.catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = env.threads, .default_partitions = 4});
  rel::PlanExecutor exec(&ctx, &catalog);

  std::string queries_json, phases_json;
  bool all_identical = true;

  // --- Per-query: plain plan execution, scan cache off.
  TablePrinter qtable(
      {"query", "row (ms)", "columnar (ms)", "speedup", "identical"});
  for (const tpch::TpchQuery& q : tpch::AllTpchQueries()) {
    rel::ExecOptions opts;
    opts.use_scan_cache = false;
    opts.engine = rel::ExecEngine::kRowOracle;
    Timed row = TimeQuery(exec, q.plan, opts, env.runs);
    opts.engine = rel::ExecEngine::kColumnar;
    Timed col = TimeQuery(exec, q.plan, opts, env.runs);

    const bool identical = row.result.output == col.result.output &&
                           row.result.result_rows == col.result.result_rows;
    all_identical = all_identical && identical;
    const double speedup = row.seconds / std::max(1e-9, col.seconds);
    qtable.AddRow({q.name, TablePrinter::FormatDouble(row.seconds * 1e3, 3),
                   TablePrinter::FormatDouble(col.seconds * 1e3, 3),
                   TablePrinter::FormatDouble(speedup, 2),
                   identical ? "yes" : "NO"});
    if (!queries_json.empty()) queries_json += ",\n";
    queries_json += "    {\"name\": \"" + q.name +
                    "\", \"row_ms\": " + JsonNum(row.seconds * 1e3) +
                    ", \"columnar_ms\": " + JsonNum(col.seconds * 1e3) +
                    ", \"speedup\": " + JsonNum(speedup) +
                    ", \"output\": " + JsonNum(col.result.output) +
                    ", \"identical\": " + (identical ? "true" : "false") + "}";
  }
  qtable.Print("TPC-H plan queries (plain run, scan cache off, min over runs)");

  // --- Per-phase-bundle: the S'/sample/domain triple, cache on.
  TablePrinter ptable(
      {"query", "row 3-phase (ms)", "columnar 3-phase (ms)", "speedup"});
  for (const tpch::TpchQuery& q : tpch::AllTpchQueries()) {
    double row = TimePhaseBundle(exec, data, q, rel::ExecEngine::kRowOracle,
                                 env.sample_n, env.runs, env.seed);
    double col = TimePhaseBundle(exec, data, q, rel::ExecEngine::kColumnar,
                                 env.sample_n, env.runs, env.seed);
    const double speedup = row / std::max(1e-9, col);
    ptable.AddRow({q.name, TablePrinter::FormatDouble(row * 1e3, 3),
                   TablePrinter::FormatDouble(col * 1e3, 3),
                   TablePrinter::FormatDouble(speedup, 2)});
    if (!phases_json.empty()) phases_json += ",\n";
    phases_json += "    {\"name\": \"" + q.name +
                   "\", \"row_ms\": " + JsonNum(row * 1e3) +
                   ", \"columnar_ms\": " + JsonNum(col * 1e3) +
                   ", \"speedup\": " + JsonNum(speedup) + "}";
  }
  ptable.Print("UPA phase bundles: S' + sample + domain (min over runs)");

  // --- Fused vs interpreted: filter-heavy single-table aggregates, the
  // Aggregate(Filter*(Scan)) shapes the fused kernels target. Both sides
  // run the columnar engine; only the FuseMode differs. Scan cache off,
  // like the per-query section. Identity is UPA_CHECKed bit-for-bit.
  std::string fused_json;
  const std::vector<std::pair<std::string, std::string>> fused_queries = {
      {"count_qty",
       "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25"},
      {"count_qty_discount",
       "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 40 AND "
       "l_discount < 0.08"},
      {"count_flag_qty",
       "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 30 AND "
       "l_returnflag = 'R'"},
      {"sum_price_window",
       "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate >= 365 "
       "AND l_shipdate < 730 AND l_discount >= 0.03"},
      {"min_price_discount",
       "SELECT MIN(l_extendedprice) FROM lineitem WHERE l_discount < 0.05"},
      {"max_price_qty",
       "SELECT MAX(l_extendedprice) FROM lineitem WHERE l_quantity >= 10"},
  };
  TablePrinter ftable(
      {"query", "interpret (ms)", "fused (ms)", "speedup", "identical"});
  for (const auto& [name, sql] : fused_queries) {
    Result<rel::PlanPtr> parsed = rel::ParseSql(sql);
    UPA_CHECK_MSG(parsed.ok(), "bench SQL failed to parse: " + sql);
    // Optimize first — splitting/ordering conjuncts into a Filter chain —
    // so both sides run the plan shape real consumers execute (a raw
    // parsed AND is one generic conjunct and would undersell both paths).
    rel::PlanPtr plan =
        rel::Optimize(parsed.value(), catalog, rel::OptimizerOptions{});
    rel::ExecOptions opts;
    opts.use_scan_cache = false;
    opts.engine = rel::ExecEngine::kColumnar;
    Timed interp = TimeQuery(
        exec, rel::WithFuseMode(plan, rel::FuseMode::kInterpret), opts,
        env.runs);
    Timed fused = TimeQuery(exec, rel::WithFuseMode(plan, rel::FuseMode::kFuse),
                            opts, env.runs);
    const bool identical =
        interp.result.output == fused.result.output &&
        interp.result.result_rows == fused.result.result_rows;
    all_identical = all_identical && identical;
    const double speedup = interp.seconds / std::max(1e-9, fused.seconds);
    ftable.AddRow({name, TablePrinter::FormatDouble(interp.seconds * 1e3, 3),
                   TablePrinter::FormatDouble(fused.seconds * 1e3, 3),
                   TablePrinter::FormatDouble(speedup, 2),
                   identical ? "yes" : "NO"});
    if (!fused_json.empty()) fused_json += ",\n";
    fused_json += "    {\"name\": \"" + name +
                  "\", \"interpret_ms\": " + JsonNum(interp.seconds * 1e3) +
                  ", \"fused_ms\": " + JsonNum(fused.seconds * 1e3) +
                  ", \"speedup\": " + JsonNum(speedup) +
                  ", \"output\": " + JsonNum(fused.result.output) +
                  ", \"identical\": " + (identical ? "true" : "false") + "}";
  }
  ftable.Print(
      "Fused vs interpreted columnar (filter-heavy chains, min over runs)");

  // --- High-cardinality GROUP BY: the single grouped pass against the
  // per-group enumeration it replaced, emulated here with the public API —
  // per distinct key value (first-appearance order in the owning table), a
  // COUNT over FilterPlan(relation, key = v) to drop empty groups, then the
  // scalar SUM plan. Both sides optimize every plan (as ExecuteSelect
  // does) and run with the scan cache off; the grouped side is one SUM run
  // whose per-group row counts give COUNT(*). Identity is UPA_CHECKed.
  std::string grouped_json;
  struct GroupedCase {
    std::string name;
    rel::PlanPtr relation;
    std::string key;
    std::string owner;
  };
  const rel::ExprPtr shipped = rel::Ge(rel::Col("l_shipdate"),
                                       rel::Lit(int64_t{600}));
  const std::vector<GroupedCase> grouped_cases = {
      {"part_count_sum",
       rel::FilterPlan(rel::ScanPlan("lineitem"), shipped), "l_partkey",
       "lineitem"},
      {"customer_count_sum_join",
       rel::FilterPlan(rel::JoinPlan(rel::ScanPlan("orders"),
                                     rel::ScanPlan("lineitem"), "o_orderkey",
                                     "l_orderkey"),
                       shipped),
       "o_custkey", "orders"},
  };
  const rel::ExprPtr price = rel::Col("l_extendedprice");
  TablePrinter gtable({"query", "groups", "single pass (ms)",
                       "enumeration (ms)", "speedup", "identical"});
  for (const GroupedCase& gc : grouped_cases) {
    rel::ExecOptions opts;
    opts.use_scan_cache = false;
    auto run = [&](const rel::PlanPtr& plan) {
      Result<rel::ExecResult> r = exec.Execute(
          rel::Optimize(plan, catalog, rel::OptimizerOptions{}), opts);
      UPA_CHECK_MSG(r.ok(), "bench query failed: " + r.status().ToString());
      return std::move(r).value();
    };
    // (count, sum) per key value, from either side.
    using Groups = std::map<int64_t, std::pair<double, double>>;
    Groups single, enumerated;
    double single_s = 1e100, enum_s = 1e100;
    for (size_t r = 0; r < env.runs; ++r) {
      double t0 = Now();
      rel::ExecResult res = run(rel::WithGroupBy(
          rel::SumPlan(gc.relation, price), {gc.key}));
      single_s = std::min(single_s, Now() - t0);
      single.clear();
      for (size_t g = 0; g < res.group_keys.size(); ++g) {
        single[std::get<int64_t>(res.group_keys[g][0])] = {
            static_cast<double>(res.group_rows[g]), res.group_outputs[g]};
      }
    }
    const rel::Table& owner = data.table(gc.owner);
    const size_t col = owner.schema().IndexOf(gc.key);
    for (size_t r = 0; r < env.runs; ++r) {
      double t0 = Now();
      std::vector<int64_t> distinct;
      std::set<int64_t> seen;
      for (const rel::Row& row : owner.rows()) {
        const int64_t v = std::get<int64_t>(row[col]);
        if (seen.insert(v).second) distinct.push_back(v);
      }
      enumerated.clear();
      for (int64_t v : distinct) {
        rel::PlanPtr filtered = rel::FilterPlan(
            gc.relation, rel::Eq(rel::Col(gc.key), rel::Lit(v)));
        const double count = run(rel::CountPlan(filtered)).output;
        if (count == 0.0) continue;
        enumerated[v] = {count, run(rel::SumPlan(filtered, price)).output};
      }
      enum_s = std::min(enum_s, Now() - t0);
    }
    UPA_CHECK_MSG(single.size() == enumerated.size(),
                  "grouped and enumerated group counts differ");
    bool identical = true;
    for (const auto& [k, v] : enumerated) {
      auto it = single.find(k);
      identical = identical && it != single.end() &&
                  it->second.first == v.first &&
                  std::bit_cast<uint64_t>(it->second.second) ==
                      std::bit_cast<uint64_t>(v.second);
    }
    all_identical = all_identical && identical;
    const double speedup = enum_s / std::max(1e-9, single_s);
    gtable.AddRow({gc.name, std::to_string(single.size()),
                   TablePrinter::FormatDouble(single_s * 1e3, 3),
                   TablePrinter::FormatDouble(enum_s * 1e3, 3),
                   TablePrinter::FormatDouble(speedup, 2),
                   identical ? "yes" : "NO"});
    if (!grouped_json.empty()) grouped_json += ",\n";
    grouped_json += "    {\"name\": \"" + gc.name +
                    "\", \"groups\": " + std::to_string(single.size()) +
                    ", \"single_pass_ms\": " + JsonNum(single_s * 1e3) +
                    ", \"enumeration_ms\": " + JsonNum(enum_s * 1e3) +
                    ", \"speedup\": " + JsonNum(speedup) +
                    ", \"identical\": " + (identical ? "true" : "false") +
                    "}";
  }
  gtable.Print(
      "High-cardinality GROUP BY: single pass vs per-group enumeration "
      "(COUNT + SUM, min over runs)");

  const char* path_env = std::getenv("UPA_BENCH_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_exec.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  UPA_CHECK_MSG(f != nullptr, "cannot open " + path);
  std::fprintf(f,
               "{\n  \"experiment\": \"exec_columnar\",\n"
               "  \"host\": %s,\n"
               "  \"orders\": %zu,\n  \"sample_n\": %zu,\n"
               "  \"runs\": %zu,\n  \"threads\": %zu,\n  \"seed\": %llu,\n"
               "  \"queries\": [\n%s\n  ],\n"
               "  \"phase_bundles\": [\n%s\n  ],\n"
               "  \"fused\": [\n%s\n  ],\n"
               "  \"grouped\": [\n%s\n  ]\n}\n",
               bench::HostJson().c_str(), env.orders, env.sample_n, env.runs,
               ctx.pool().thread_count(),
               static_cast<unsigned long long>(env.seed),
               queries_json.c_str(), phases_json.c_str(), fused_json.c_str(),
               grouped_json.c_str());
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());

  UPA_CHECK_MSG(all_identical, "row and columnar outputs diverged");
  return 0;
}
