// PlanExecutor: runs a logical plan on the engine, optionally tracking the
// provenance of a designated *private table* so that per-record influence
// falls out of the run.
//
// Provenance mirrors UPA's joinDP index tracking (§V-C): every row of the
// private table carries its index through filters and joins; at the
// aggregate, each result row's weight is attributed to the private record
// it descends from. Because the evaluated plans are inner-join SPJ trees
// with additive aggregates (Count/Sum), removing private record r changes
// the output by exactly -contribution[r] — which powers
//   * UPA's sampled-neighbour outputs (run the plan with the private table
//     restricted to the sample: the second join/shuffle round),
//   * the per-partition outputs the RANGE ENFORCER compares,
//   * the exhaustive exact ground truth.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/context.h"
#include "relational/plan.h"
#include "relational/table.h"

namespace upa::rel {

/// Which physical engine evaluates the plan.
///   kColumnar — vectorized batch kernels over columnar storage with late
///     materialization (relational/columnar.h). The default: this is the
///     hot path UPA's three-executions-per-run cost structure rides on.
///   kRowOracle — the original row-at-a-time interpreter, kept as the
///     correctness oracle. Both engines aggregate through exact
///     (correctly-rounded) summation, so they agree bit-for-bit on every
///     output — asserted by tests/relational_columnar_test.cpp.
enum class ExecEngine { kRowOracle, kColumnar };

struct ExecOptions {
  /// Physical engine. Results are bit-identical either way; the columnar
  /// engine is simply much faster.
  ExecEngine engine = ExecEngine::kColumnar;
  /// Table whose rows are the privacy unit. Empty → no provenance.
  /// The table must be scanned at most once in the plan.
  std::string private_table;
  /// If set: run with the private table restricted to exactly these row
  /// indices (sorted). Mutually exclusive with exclude_rows. Indexes the
  /// replacement rows when replace_private_rows is also set.
  const std::vector<size_t>* include_rows = nullptr;
  /// If set: run with these row indices (sorted) removed. Indexes the
  /// replacement rows when replace_private_rows is also set.
  const std::vector<size_t>* exclude_rows = nullptr;
  /// If set: replace the private table's rows entirely (synthetic "record
  /// added" neighbours; churned datasets). Provenance = position in this
  /// vector. include/exclude compose on top.
  const std::vector<Row>* replace_private_rows = nullptr;
  /// Cache non-private scans and fully-public plan subtrees in a block
  /// cache (keyed by table/plan identity + parallelism).
  bool use_scan_cache = true;
  /// The block cache for use_scan_cache; nullptr = the context's. UPA's
  /// phase runs of one execution pass a cache the execution owns, so the
  /// S' / sample / domain passes reuse the public side — the effect behind
  /// the paper's Fig 4(b) — and the entries die with the execution instead
  /// of piling up in the context across independent executions.
  engine::BlockCache* cache = nullptr;
  /// If > 0: also produce per-partition outputs, where private record i
  /// belongs to partition i % partitions. Result rows with no private
  /// provenance count toward every partition (they are unaffected by any
  /// private record).
  size_t partitions = 0;
  /// Record per-private-record additive influence.
  bool track_contributions = false;
  /// Engine parallelism for this run (0 = context default).
  size_t engine_partitions = 0;
};

/// The block cache a run with `options` uses: options.cache, else the
/// context's.
inline engine::BlockCache& RunCache(engine::ExecContext* ctx,
                                    const ExecOptions& options) {
  return options.cache != nullptr ? *options.cache : ctx->cache();
}

struct ExecResult {
  /// The scalar aggregate (Count or Sum at the plan root).
  double output = 0.0;
  /// Per-partition outputs (empty unless options.partitions > 0).
  std::vector<double> partition_outputs;
  /// Private row index → additive influence on `output` (only rows that
  /// reached the aggregate appear; absent rows have influence 0).
  std::unordered_map<size_t, double> contributions;
  /// Rows that reached the aggregate.
  size_t result_rows = 0;
  /// Grouped roots only (non-empty PlanNode::group_by; `output` stays 0):
  /// one entry per group of rows that reached the aggregate, in key order
  /// — canonical key tuple, aggregate output and row count per group
  /// (relational/group_by.h).
  std::vector<Row> group_keys;
  std::vector<double> group_outputs;
  std::vector<size_t> group_rows;
};

class PlanExecutor {
 public:
  PlanExecutor(engine::ExecContext* ctx, const Catalog* catalog);

  /// Executes a plan whose root is an Aggregate. Fails with
  /// INVALID_ARGUMENT / NOT_FOUND / UNSUPPORTED on malformed plans, and
  /// with UNSUPPORTED when a grouped root meets provenance options
  /// (private table, include/exclude/replace rows, partitions,
  /// contributions): per-group DP release is not implemented.
  Result<ExecResult> Execute(const PlanPtr& plan,
                             const ExecOptions& options = {}) const;

 private:
  engine::ExecContext* ctx_;
  const Catalog* catalog_;
};

}  // namespace upa::rel
