// Adapter from a TPC-H logical plan to a UPA QueryInstance.
//
// execute_phases performs three engine runs of the plan (paper §V-C):
//   1. S' run  — the plan over the private table minus the sample, with
//      per-partition aggregation (Algorithm 1's ReduceByPar on S').
//   2. Sample run — the plan over the sampled records only, with
//      contribution tracking: this is joinDP's *second* join/shuffle pass,
//      which re-shuffles the non-private tables and is why join queries
//      carry >100% overhead in the paper's Fig 2(b).
//   3. Domain run — the plan over n synthetic private-table rows (the
//      "record added from D \ x" neighbours). Skipped when the runner asks
//      for no domain records (a sensitivity-cache hit).
//
// The mapped value of private record r is its additive contribution to the
// aggregate (via join-index provenance); the reducer is scalar addition.
#pragma once

#include <memory>
#include <vector>

#include "relational/executor.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "upa/query_instance.h"

namespace upa::queries {

/// `private_rows_override`, when set, substitutes the private table's rows
/// (a churned copy) for every phase run; sample indices address it.
///
/// By default the plan passes through the cost-based optimizer first
/// (relational/optimizer.h) with the query's private table exempted from
/// build-side hints. Safe for DP: every optimized plan is bit-identical to
/// the original, so sensitivities and noise are unchanged. `optimize =
/// false` runs the plan exactly as given (differential baselines).
core::QueryInstance MakePlanQuery(
    engine::ExecContext* ctx, std::shared_ptr<const rel::PlanExecutor> executor,
    const tpch::TpchDataset* data, const tpch::TpchQuery& query,
    std::shared_ptr<const std::vector<rel::Row>> private_rows_override =
        nullptr,
    bool optimize = true);

}  // namespace upa::queries
