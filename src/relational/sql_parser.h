// A SQL front-end for the relational layer: single-block SELECT statements
// over scans, equi-joins and filters, with scalar and grouped aggregation —
// the query class the engine actually executes (kAggregate plans, grouped
// ones in a single pass per aggregate; see relational/sql_exec.h).
//
//   SELECT COUNT(*) FROM lineitem
//   SELECT SUM(l_extendedprice * l_discount) FROM lineitem
//          WHERE l_shipdate >= 365 AND l_shipdate < 730
//   SELECT l_returnflag, SUM(l_quantity) AS qty, AVG(l_extendedprice)
//          FROM orders JOIN lineitem ON o_orderkey = l_orderkey
//          WHERE o_totalprice > 1000
//          GROUP BY l_returnflag HAVING COUNT(*) > 10
//          ORDER BY qty DESC, l_returnflag LIMIT 5
//
// Grammar (case-insensitive keywords):
//   select  := SELECT item (',' item)* FROM ident
//              (JOIN ident ON ident '=' ident)*
//              (WHERE expr)?
//              (GROUP BY ident (',' ident)*)?
//              (HAVING expr)?
//              (ORDER BY okey (',' okey)*)?
//              (LIMIT int)?
//   item    := expr (AS ident)?
//   okey    := expr (ASC | DESC)?        -- also: select-list alias, or a
//                                           1-based integer ordinal
//   agg     := COUNT '(' '*' ')' | (SUM|AVG|MIN|MAX) '(' expr ')'
//   expr    := or; or := and (OR and)*; and := not (AND not)*
//   not     := NOT not | cmp
//   cmp     := add (cmpop add)? | add IN '(' literal (',' literal)* ')'
//   add     := mul (('+'|'-') mul)*; mul := prim (('*'|'/') prim)*
//   prim    := number | 'string' | ident | agg | '(' expr ')'
//
// Aggregate calls are legal in select items, HAVING and ORDER BY (not in
// WHERE or join conditions, and not nested). The parser hoists each
// distinct call into an AggSlot and replaces it with a synthetic "$aggN"
// column reference, so items/HAVING/ORDER BY are plain expressions over
// [group-by columns..., $agg0, $agg1, ...]. Statement-level rules enforced
// here: every non-aggregate column reference in items/HAVING/ORDER BY must
// be a GROUP BY column, HAVING requires GROUP BY, and LIMIT takes a
// non-negative integer literal.
//
// The WHERE clause parses to a single Filter above the joins; predicate
// placement is the optimizer's job (relational/optimizer.h pushes
// conjuncts down to their scans since PR 6).
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "relational/plan.h"

namespace upa::rel {

/// One hoisted aggregate call. `expr` is the summed expression for
/// SUM/AVG/MIN/MAX and null for COUNT(*).
struct AggSlot {
  AggKind kind = AggKind::kCount;
  ExprPtr expr;
};

/// One select-list entry: an expression over group-by columns and "$aggN"
/// references, its display name (the source text, or the AS alias), and
/// the alias itself ("" when absent).
struct SelectItem {
  ExprPtr expr;
  std::string name;
  std::string alias;
};

/// One ORDER BY key, already resolved: aliases and ordinals are replaced
/// by the referenced item's expression at parse time.
struct OrderKey {
  ExprPtr expr;
  bool desc = false;
};

/// A parsed single-block SELECT. `relation` is the FROM/JOIN/WHERE plan
/// tree (no aggregate root); grouping, HAVING, ordering and LIMIT are
/// evaluated by ExecuteSelect (relational/sql_exec.h) on top of aggregate
/// runs of `relation` (grouped by `group_by` when it is non-empty).
struct SqlSelect {
  std::vector<SelectItem> items;
  std::vector<AggSlot> aggs;
  PlanPtr relation;
  std::vector<std::string> group_by;
  ExprPtr having;                  // null when absent; uses "$aggN" refs
  std::vector<OrderKey> order_by;
  int64_t limit = -1;              // -1 = no LIMIT
};

/// Parses one SELECT statement. Errors carry the offending position/token
/// in the message.
Result<SqlSelect> ParseSqlSelect(const std::string& sql);

/// Parses a statement that must be a single bare aggregate (the scalar
/// subset the DP release path consumes) into a logical plan. Statements
/// using the wider surface (multiple items, GROUP BY/HAVING/ORDER BY/
/// LIMIT, arithmetic around the aggregate) fail with INVALID_ARGUMENT —
/// run those through ParseSqlSelect + ExecuteSelect.
Result<PlanPtr> ParseSql(const std::string& sql);

/// Builds the scalar aggregate plan for one hoisted slot over `relation`.
PlanPtr PlanForAgg(PlanPtr relation, const AggSlot& slot);

}  // namespace upa::rel
