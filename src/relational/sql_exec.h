// Executes a parsed single-block SELECT (relational/sql_parser.h) on the
// engine and returns a result table.
//
// A scalar query runs one aggregate plan per hoisted slot. A grouped query
// runs one grouped plan (PlanNode::group_by) per distinct non-COUNT slot,
// and each of those is one pass — one scan, or one join — that every
// engine folds into per-group state (relational/group_by.h). COUNT(*)
// comes from the per-group row counts, so a COUNT+SUM query is one pass;
// a COUNT(*)-only query runs one grouped count. Groups are formed from the
// rows that survive WHERE, so a key value the WHERE clause eliminates never
// yields a row. HAVING / select items / ORDER BY are then plain
// expressions over [group keys..., $agg0, $agg1, ...] evaluated with the
// row-expression machinery (relational/expr.h).
//
// Output order: groups are listed by the first appearance of each key in
// its owning table, key by key (read from the table's columnar column),
// and each group reports that first appearance's cell as its key. ORDER BY
// is a stable sort on top, so ties keep that order. There is no cap on the
// number of groups.
//
// Key semantics follow the engine's Compare: -0.0 and 0.0 are one group
// (reported as whichever the owning table holds first). A NaN key forms
// one NaN group holding exactly the NaN rows. (The per-group enumeration
// this replaced filtered with `key = NaN`, which the engine's
// NaN-equals-everything comparison made true on every row.)
//
// ExecuteSelect runs *public* queries: provenance options (private_table,
// include/exclude/replace rows, partitions, contributions) are rejected —
// the DP release path consumes single bare aggregates through ParseSql and
// the service layer instead.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/context.h"
#include "relational/executor.h"
#include "relational/sql_parser.h"

namespace upa::rel {

struct SqlExecOptions {
  /// Engine options for every aggregate run. Provenance fields must
  /// be unset (see file comment).
  ExecOptions exec;
  /// Run each plan through the cost-based optimizer first.
  bool optimize = true;
  /// Force the fusion decision on every aggregate root (differential tests
  /// pin kFuse/kInterpret); kAuto keeps the optimizer's marking.
  FuseMode fuse = FuseMode::kAuto;
};

/// A materialized query result: one column per select item (display names
/// from the item's alias or source text), one row per group — or exactly
/// one row for scalar (non-grouped) queries.
struct SqlResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
};

/// Executes a parsed SELECT. See the file comment for the lowering.
Result<SqlResultSet> ExecuteSelect(engine::ExecContext* ctx,
                                   const Catalog& catalog,
                                   const SqlSelect& stmt,
                                   const SqlExecOptions& options = {});

/// Parse + execute in one step.
Result<SqlResultSet> ExecuteSql(engine::ExecContext* ctx,
                                const Catalog& catalog,
                                const std::string& sql,
                                const SqlExecOptions& options = {});

}  // namespace upa::rel
