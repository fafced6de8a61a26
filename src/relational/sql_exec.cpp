#include "relational/sql_exec.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "relational/group_by.h"
#include "relational/optimizer.h"

namespace upa::rel {
namespace {

std::string AggRefName(size_t i) { return "$agg" + std::to_string(i); }

/// One aggregate run: optimize, apply the fusion override, execute.
Result<ExecResult> RunPlan(const PlanExecutor& executor,
                           const Catalog& catalog, PlanPtr plan,
                           const SqlExecOptions& options) {
  if (options.optimize) {
    OptimizerOptions opt;
    opt.private_table = options.exec.private_table;
    plan = Optimize(plan, catalog, opt);
  }
  if (options.fuse != FuseMode::kAuto) {
    plan = WithFuseMode(plan, options.fuse);
  }
  return executor.Execute(plan, options.exec);
}

/// Where a GROUP BY key comes from: its owning table's column.
struct KeySource {
  const Table* table = nullptr;
  size_t col = 0;
};

/// For each group key of `groups` (one engine result), the owning table's
/// first physical row holding it: a scan of the columnar column that stops
/// once every key was found.
std::vector<uint32_t> FirstRows(const KeySource& src,
                                const std::vector<Row>& groups, size_t k) {
  const Column& col = src.table->Columnar()->column(src.col);
  DenseIdMap wanted;
  std::vector<uint32_t> ids;  // per group: its key's id in `wanted`
  ids.reserve(groups.size());
  for (const Row& g : groups) {
    std::optional<uint64_t> code = KeyCodeOf(col, g[k]);
    UPA_CHECK_MSG(code.has_value(), "group key missing from its table");
    ids.push_back(wanted.Intern(*code));
  }
  std::vector<uint32_t> first(wanted.size(), DenseIdMap::kNone);
  size_t found = 0;
  const size_t n = src.table->NumRows();
  for (uint32_t r = 0; r < n && found < first.size(); ++r) {
    const uint32_t id = wanted.Find(KeyCode(col, r));
    if (id != DenseIdMap::kNone && first[id] == DenseIdMap::kNone) {
      first[id] = r;
      ++found;
    }
  }
  UPA_CHECK_MSG(found == first.size(), "group key missing from its table");
  for (uint32_t& id : ids) id = first[id];
  return ids;
}

/// The grouped rows [keys..., $agg0, $agg1, ...]: one grouped run per
/// non-COUNT slot (a COUNT(*)-only query runs one grouped count), COUNT(*)
/// from the runs' per-group row counts. Rows are ordered the way the old
/// candidate-group enumeration produced them: by each key's first
/// appearance in its owning table, key by key. Each reported key is that
/// first appearance's cell.
Result<std::vector<Row>> GroupedRows(const PlanExecutor& executor,
                                     const Catalog& catalog,
                                     const SqlSelect& stmt,
                                     const std::vector<KeySource>& sources,
                                     const SqlExecOptions& options) {
  std::vector<std::vector<double>> values(stmt.aggs.size());
  std::optional<ExecResult> shape;  // keys and row counts of the groups
  auto run = [&](const AggSlot& slot) -> Result<std::vector<double>> {
    PlanPtr plan = WithGroupBy(PlanForAgg(stmt.relation, slot), stmt.group_by);
    Result<ExecResult> r = RunPlan(executor, catalog, plan, options);
    if (!r.ok()) return r.status();
    ExecResult& res = r.value();
    if (!shape.has_value()) {
      shape = std::move(res);
      return shape->group_outputs;
    }
    if (res.group_rows != shape->group_rows ||
        !std::equal(res.group_keys.begin(), res.group_keys.end(),
                    shape->group_keys.begin(), shape->group_keys.end(),
                    KeyRowEq{})) {
      return Status::Internal("grouped runs disagree on the groups");
    }
    return std::move(res.group_outputs);
  };
  for (size_t i = 0; i < stmt.aggs.size(); ++i) {
    if (stmt.aggs[i].kind == AggKind::kCount) continue;
    Result<std::vector<double>> out = run(stmt.aggs[i]);
    if (!out.ok()) return out.status();
    values[i] = std::move(out).value();
  }
  if (!shape.has_value()) {
    Result<std::vector<double>> out = run(AggSlot{});
    if (!out.ok()) return out.status();
  }
  const std::vector<Row>& keys = shape->group_keys;
  const size_t ng = keys.size();

  std::vector<std::vector<uint32_t>> first(sources.size());
  for (size_t k = 0; k < sources.size(); ++k) {
    first[k] = FirstRows(sources[k], keys, k);
  }
  std::vector<size_t> order(ng);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < sources.size(); ++k) {
      if (first[k][a] != first[k][b]) return first[k][a] < first[k][b];
    }
    return false;
  });

  std::vector<Row> rows;
  rows.reserve(ng);
  for (size_t g : order) {
    Row row;
    for (size_t k = 0; k < sources.size(); ++k) {
      row.push_back(sources[k].table->rows()[first[k][g]][sources[k].col]);
    }
    for (size_t i = 0; i < stmt.aggs.size(); ++i) {
      row.push_back(Value{stmt.aggs[i].kind == AggKind::kCount
                              ? static_cast<double>(shape->group_rows[g])
                              : values[i][g]});
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

Result<SqlResultSet> ExecuteSelect(engine::ExecContext* ctx,
                                   const Catalog& catalog,
                                   const SqlSelect& stmt,
                                   const SqlExecOptions& options) {
  const ExecOptions& eo = options.exec;
  if (!eo.private_table.empty() || eo.include_rows != nullptr ||
      eo.exclude_rows != nullptr || eo.replace_private_rows != nullptr ||
      eo.partitions > 0 || eo.track_contributions) {
    return Status::Unsupported(
        "ExecuteSelect runs public queries only; provenance and partition "
        "options belong to the scalar release path (ParseSql + "
        "PlanExecutor)");
  }
  if (stmt.relation == nullptr) {
    return Status::InvalidArgument("statement has no FROM relation");
  }

  PlanExecutor executor(ctx, &catalog);

  // -- Internal row schema: [group keys..., $agg0, $agg1, ...] -------------
  std::vector<ColumnDef> defs;
  std::vector<KeySource> sources;
  for (const std::string& key : stmt.group_by) {
    std::string owner = OwningTable(stmt.relation, key, catalog);
    if (owner.empty()) {
      return Status::InvalidArgument("GROUP BY column '" + key +
                                     "' is not provided (or is ambiguous) "
                                     "in the FROM relation");
    }
    const Table* table = catalog.at(owner);
    const size_t col = table->schema().IndexOf(key);
    defs.push_back(table->schema().column(col));
    sources.push_back({table, col});
  }
  for (size_t i = 0; i < stmt.aggs.size(); ++i) {
    defs.push_back({AggRefName(i), ValueType::kDouble});
  }
  const Schema schema{defs};

  // -- Evaluate the aggregate slots ----------------------------------------
  // A scalar query is one row, even over an empty relation (COUNT is 0).
  std::vector<Row> group_rows;
  if (stmt.group_by.empty()) {
    Row row;
    for (const AggSlot& slot : stmt.aggs) {
      Result<ExecResult> out = RunPlan(
          executor, catalog, PlanForAgg(stmt.relation, slot), options);
      if (!out.ok()) return out.status();
      row.push_back(Value{out.value().output});
    }
    group_rows.push_back(std::move(row));
  } else {
    Result<std::vector<Row>> rows =
        GroupedRows(executor, catalog, stmt, sources, options);
    if (!rows.ok()) return rows.status();
    group_rows = std::move(rows).value();
  }

  // -- HAVING --------------------------------------------------------------
  if (stmt.having != nullptr) {
    auto keep = BindPredicate(stmt.having, schema);
    std::vector<Row> surviving;
    for (Row& row : group_rows) {
      if (keep(row)) surviving.push_back(std::move(row));
    }
    group_rows = std::move(surviving);
  }

  // -- ORDER BY (over the internal rows, before projection) ----------------
  std::vector<size_t> order(group_rows.size());
  std::iota(order.begin(), order.end(), 0);
  if (!stmt.order_by.empty()) {
    std::vector<std::vector<Value>> keys(group_rows.size());
    for (const OrderKey& key : stmt.order_by) {
      auto eval = Bind(key.expr, schema);
      for (size_t i = 0; i < group_rows.size(); ++i) {
        keys[i].push_back(eval(group_rows[i]));
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < stmt.order_by.size(); ++k) {
        int c = TotalOrderCompare(keys[a][k], keys[b][k]);
        if (stmt.order_by[k].desc) c = -c;
        if (c != 0) return c < 0;
      }
      return false;  // stable_sort keeps first-appearance order for ties
    });
  }

  // -- Project the select items -------------------------------------------
  SqlResultSet result;
  std::vector<BoundExpr> projections;
  for (const SelectItem& item : stmt.items) {
    result.columns.push_back(item.name);
    projections.push_back(Bind(item.expr, schema));
  }
  size_t n = group_rows.size();
  if (stmt.limit >= 0) n = std::min(n, static_cast<size_t>(stmt.limit));
  result.rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Row& src = group_rows[order[i]];
    Row out;
    out.reserve(projections.size());
    for (const BoundExpr& project : projections) out.push_back(project(src));
    result.rows.push_back(std::move(out));
  }
  return result;
}

Result<SqlResultSet> ExecuteSql(engine::ExecContext* ctx,
                                const Catalog& catalog,
                                const std::string& sql,
                                const SqlExecOptions& options) {
  Result<SqlSelect> stmt = ParseSqlSelect(sql);
  if (!stmt.ok()) return stmt.status();
  return ExecuteSelect(ctx, catalog, stmt.value(), options);
}

}  // namespace upa::rel
