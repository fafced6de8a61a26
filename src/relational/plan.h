// Logical query plans: the Scan / Filter / Join / Aggregate subset the
// paper evaluates (SparkSQL TPC-H queries reduced to scalar aggregates).
//
// The same plan object serves three consumers:
//   * the provenance executor (native runs, UPA's phase runs, ground truth),
//   * FLEX's static analyzer (operator composition + join-key metadata),
//   * documentation (ToString).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/expr.h"
#include "relational/table.h"

namespace upa::rel {

struct PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

enum class PlanKind { kScan, kFilter, kJoin, kAggregate };

/// Hash-build side hint for a join, set by the cost-based optimizer from
/// estimated cardinalities. kAuto lets the columnar engine build from the
/// smaller materialized side at runtime (the row oracle always ignores the
/// hint). Purely physical: results are bit-identical either way, since
/// every aggregate is exact and order-independent.
enum class BuildSide : uint8_t { kAuto, kLeft, kRight };

/// Count/Sum are the additive aggregates UPA's provenance machinery
/// supports end-to-end; Avg/Min/Max execute natively (plain runs) but
/// reject provenance options (per-record influence is not additive).
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

/// Whether the columnar engine may collapse a fusible
/// Aggregate(Filter*(Scan)) chain into the single-pass fused kernel
/// (relational/fused.h) instead of interpreting one node per batch pass.
/// Purely physical (results are bit-identical), but it is a plan property
/// — like BuildSide — so the optimizer can record the decision and the
/// fingerprint distinguishes the physical forms.
///   kAuto      — fuse whenever the shape qualifies (the default),
///   kFuse      — the optimizer marked the chain fusible,
///   kInterpret — force the per-node interpreted path (differential tests
///                and benches use this to obtain the unfused baseline).
enum class FuseMode : uint8_t { kAuto, kFuse, kInterpret };

struct PlanNode {
  PlanKind kind = PlanKind::kScan;

  // kScan
  std::string table;

  // kFilter (child in `left`)
  ExprPtr predicate;

  // kJoin — equi-join on left_key = right_key (int64-keyed)
  PlanPtr left, right;
  std::string left_key, right_key;
  BuildSide build_side = BuildSide::kAuto;

  // kAggregate (child in `left`)
  AggKind agg = AggKind::kCount;
  ExprPtr agg_expr;  // summed expression for kSum
  FuseMode fuse = FuseMode::kAuto;
  /// Group keys (column names of the child relation). Empty: one scalar
  /// aggregate. Otherwise the engines report one output per group in one
  /// pass (ExecResult::group_*; relational/group_by.h). Root only.
  std::vector<std::string> group_by;
};

PlanPtr ScanPlan(std::string table);
PlanPtr FilterPlan(PlanPtr child, ExprPtr predicate);
PlanPtr JoinPlan(PlanPtr left, PlanPtr right, std::string left_key,
                 std::string right_key);
PlanPtr CountPlan(PlanPtr child);
PlanPtr SumPlan(PlanPtr child, ExprPtr expr);
PlanPtr AvgPlan(PlanPtr child, ExprPtr expr);
PlanPtr MinPlan(PlanPtr child, ExprPtr expr);
PlanPtr MaxPlan(PlanPtr child, ExprPtr expr);

/// Shallow-copies an Aggregate root with its FuseMode replaced (plans are
/// immutable shared trees; the child subtree is shared, not copied).
PlanPtr WithFuseMode(const PlanPtr& plan, FuseMode mode);

/// Shallow-copies an Aggregate root with its group keys replaced.
PlanPtr WithGroupBy(const PlanPtr& plan, std::vector<std::string> keys);

/// Static shape of a plan — what FLEX looks at.
struct PlanStats {
  size_t num_joins = 0;
  size_t num_filters = 0;
  size_t num_scans = 0;
  bool has_aggregate = false;
  AggKind agg = AggKind::kCount;
  /// (table, column) pairs for each join side, in visit order.
  std::vector<std::pair<std::string, std::string>> join_columns;
  /// All scanned table names.
  std::vector<std::string> tables;
};

PlanStats AnalyzePlan(const PlanPtr& plan);

/// Number of Scan nodes of `table` under `plan` (nullptr → 0). Both engines
/// use this to validate the single-private-scan invariant and to decide
/// which subtrees are fully public (and therefore cacheable).
size_t CountScansOf(const PlanPtr& plan, const std::string& table);

/// One-line plan rendering, e.g.
/// "Count(Join(Filter(Scan(orders)), Scan(lineitem), o_orderkey=l_orderkey))"
/// A grouped aggregate appends its keys: "Count(Scan(orders)) BY o_custkey".
std::string PlanToString(const PlanPtr& plan);

/// Structural fingerprint of a plan against a catalog: node kinds,
/// predicate/aggregate expressions (exact literal bits), join keys, and —
/// for scans — the *uid* of the resolved table. Keying caches on this
/// instead of PlanNode*/Table* addresses means a freed-and-reallocated
/// plan or table can never silently hit a stale entry (the address may be
/// recycled; a uid never is). Tables missing from the catalog hash by
/// name; execution fails on them before any cache is consulted.
uint64_t PlanFingerprint(const PlanPtr& plan, const Catalog& catalog);

/// Checks every table and column `plan` names (scans, filter predicates,
/// join keys, the aggregate expression and group keys) against `catalog`:
/// kInvalidArgument naming the first unknown one. The engines make the
/// same checks when they run a plan; a front door calls this first so a
/// bad query is refused instead of reaching a run that must not fail.
Status CheckPlanColumns(const PlanPtr& plan, const Catalog& catalog);

/// The table each join column belongs to is resolved structurally: the key
/// of a join side must come from a Scan under that side. Returns the table
/// name owning `column` under `plan`, or "" if ambiguous/unknown.
std::string OwningTable(const PlanPtr& plan, const std::string& column,
                        const Catalog& catalog);

}  // namespace upa::rel
