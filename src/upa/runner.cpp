#include "upa/runner.h"

#include <algorithm>
#include <cmath>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "dp/mechanism.h"

namespace upa::core {
namespace {

/// Per-partition reductions of the sampled records at every cut the
/// enforcer can ask for. The enforcer removes sample records two at a time,
/// newest index first, so cut c keeps the first n − min(2c, n) records:
/// cuts[c][j] reduces partition j's records among them. One ascending pass
/// snapshots each accumulator as it passes a cut, so every partial is the
/// same Combine sequence (identity, then its records in sample order) a
/// per-cut fold performs — bit-identical, at the cost of one pass.
std::vector<std::vector<Vec>> SampleCutPartials(
    const std::vector<Vec>& sample_mapped,
    const std::vector<size_t>& sample_partition, size_t num_partitions,
    size_t num_cuts) {
  const size_t n = sample_mapped.size();
  auto keep = [n](size_t c) { return n - std::min(2 * c, n); };
  std::vector<std::vector<Vec>> cuts(num_cuts);
  std::vector<Vec> acc(num_partitions, VecSum::Identity());
  // Cuts fill from the smallest keep (the last cut) up to cut 0 (keep n).
  size_t next = num_cuts;
  for (size_t i = 0;; ++i) {
    while (next > 0 && keep(next - 1) == i) cuts[--next] = acc;
    if (i == n) break;
    Vec& part = acc[sample_partition[i]];
    part = VecSum::Combine(std::move(part), sample_mapped[i]);
  }
  return cuts;
}

}  // namespace

Result<UpaRunResult> UpaRunner::Run(const QueryInstance& query,
                                    uint64_t seed,
                                    const SensitivityHint* hint) {
  if (query.num_records == 0) {
    return Status::InvalidArgument("query '" + query.name +
                                   "': empty input dataset");
  }
  if (!query.execute_phases) {
    return Status::InvalidArgument("query '" + query.name +
                                   "': missing execute_phases");
  }
  if (query.ctx == nullptr) {
    return Status::InvalidArgument("query '" + query.name +
                                   "': missing ExecContext");
  }
  // Percentile misconfiguration would otherwise abort deep inside the
  // quantile math; reject it as a recoverable error at the API boundary.
  if (!(config_.lo_percentile > 0.0 && config_.hi_percentile < 100.0 &&
        config_.lo_percentile < config_.hi_percentile)) {
    return Status::InvalidArgument(
        "query '" + query.name +
        "': percentiles must satisfy 0 < lo < hi < 100");
  }
  const size_t num_partitions = std::max<size_t>(2, config_.enforcer_partitions);

  UpaRunResult result;
  Stopwatch total_watch;
  engine::MetricsSnapshot metrics_before = query.ctx->metrics().Snapshot();

  // Phases 3b/4 fan out over the engine pool unless disabled. Every
  // parallel section below either writes disjoint per-index slots or
  // combines in a fixed order, so the flag changes wall-clock only, never
  // a single output bit (tested in upa_runner_test).
  ThreadPool* pool = config_.parallel_phases ? &query.ctx->pool() : nullptr;
  auto run_chunks = [&](const char* phase, size_t count,
                        const std::function<void(size_t, size_t)>& fn) {
    if (pool == nullptr) {
      if (count > 0) fn(0, count);
      return;
    }
    // Morsel-driven: workers pull fixed-grain index ranges off a shared
    // cursor, so one heavy neighbour chunk cannot stall the phase the
    // way a static chunk split could. Boundaries depend only on count, so
    // per-slot outputs are bit-identical to the sequential loop.
    ThreadPool::MorselTimings timings;
    size_t launched = pool->ParallelForMorsels(count, 0, fn, &timings);
    query.ctx->metrics().AddTasks(launched);
    query.ctx->metrics().AddPhaseTasks(phase, launched);
    query.ctx->metrics().RecordMorselRun(phase, timings.seconds);
  };

  // Cancellation points sit between phases (and, via ParallelForMorsels,
  // at every morsel boundary inside them). The last check runs before the
  // enforcer session: past that point the query registers and releases, so
  // a later cancellation must NOT abandon the run — "refund iff nothing
  // was released" depends on cancelled runs never reaching Register.
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());

  // ---- Phase 1: Partition & Sample -------------------------------------
  UPA_FAILPOINT("upa/phase_sample");
  Stopwatch phase_watch;
  const size_t n = std::min(config_.sample_n, query.num_records);
  result.sample_size = n;
  Rng sampler = Rng::ForStream(seed, "upa/sampler/" + query.name);
  std::vector<size_t> sample_indices =
      sampler.SampleWithoutReplacement(query.num_records, n);
  std::vector<size_t> sample_partition(n);
  for (size_t i = 0; i < n; ++i) {
    sample_partition[i] = sample_indices[i] % num_partitions;
  }
  result.seconds.sample = phase_watch.ElapsedSeconds();

  // ---- Phase 2 + S'-side of phase 3 (delegated to the query) -----------
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
  UPA_FAILPOINT("upa/phase_map");
  phase_watch.Reset();
  // The synthetic domain records only feed the neighbour outputs, which a
  // hinted run never evaluates, so a hit asks for none of them.
  const size_t num_domain = hint == nullptr ? n : 0;
  MappedBatches batches =
      query.execute_phases(sample_indices, num_partitions, num_domain, seed);
  result.seconds.map = phase_watch.ElapsedSeconds();
  // A token that tripped mid-map leaves partially-built batches behind
  // (ParallelFor skips the remaining chunks), so the cancellation must be
  // surfaced before the shape checks get a chance to call it corruption.
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
  if (batches.sample_mapped.size() != n) {
    return Status::Internal(
        "query '" + query.name +
        "': execute_phases returned wrong sample batch size");
  }
  if (batches.sprime_partials.size() != num_partitions) {
    return Status::Internal(
        "query '" + query.name +
        "': execute_phases returned wrong partition count");
  }

  // ---- Phase 3b: Union-Preserving Reduce --------------------------------
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
  UPA_FAILPOINT("upa/phase_reduce");
  phase_watch.Reset();
  Vec r_sprime = VecSum::Identity();
  for (const Vec& partial : batches.sprime_partials) {
    r_sprime = VecSum::Combine(std::move(r_sprime), partial);
  }
  Vec r_s = TotalAggregate(batches.sample_mapped);
  Vec f_vec = VecSum::Combine(r_sprime, r_s);

  // Sampled-neighbour outputs: removals f(x - s_i), additions f(x + s̄_i),
  // derived from the per-exclusion reductions R(S \ s_i). They only feed
  // the sensitivity fit, so a hinted run skips them entirely — the
  // expensive part of a repeated query shape.
  if (hint == nullptr) {
    // Each output depends only on its own index, so the chunked evaluation
    // performs exactly the sequential loop's arithmetic per slot.
    std::vector<Vec> excl =
        ExclusionAggregate(batches.sample_mapped, config_.exclusion, pool);
    const size_t num_neighbours = n + batches.domain_mapped.size();
    result.neighbour_outputs.resize(num_neighbours);
    run_chunks("upa/neighbour_eval", num_neighbours,
               [&](size_t begin, size_t end) {
                 for (size_t i = begin; i < end; ++i) {
                   result.neighbour_outputs[i] =
                       i < n ? query.OutputOf(VecSum::Combine(r_sprime, excl[i]))
                             : query.OutputOf(VecSum::Combine(
                                   f_vec, batches.domain_mapped[i - n]));
                 }
               });
  }
  result.seconds.reduce = phase_watch.ElapsedSeconds();

  // ---- Phase 4: iDP Enforcement -----------------------------------------
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
  UPA_FAILPOINT("upa/phase_enforce");
  phase_watch.Reset();
  const double f_x = query.OutputOf(f_vec);
  if (hint != nullptr) {
    // Reuse the sensitivity/range a previous run of this query shape
    // inferred (same dataset epoch, so the inference inputs are
    // unchanged). The enforcer/clamp/noise path below is untouched —
    // soundness never depended on where the range came from.
    result.local_sensitivity = hint->local_sensitivity;
    result.out_range = hint->out_range;
    result.degenerate_sensitivity = hint->degenerate;
  } else if (config_.sensitivity_rule == SensitivityRule::kOutputRange) {
    result.out_range =
        NormalPercentileInterval(result.neighbour_outputs,
                                 config_.lo_percentile, config_.hi_percentile);
    result.local_sensitivity = result.out_range.width();
  } else {
    // Influence rules: Definition II.1 evaluated on the sampled
    // neighbours. kSampledMax is the greatest observed |f(x) - f(y)|;
    // kInfluencePercentile additionally extrapolates the tail with the
    // fitted normal's P99 (useful for smooth influence distributions,
    // overshooting for binary ones). Either way this is an *estimate* of
    // the true maximum; soundness comes from the Range Enforcer's clamp,
    // not from here.
    std::vector<double> influences(result.neighbour_outputs.size());
    run_chunks("upa/influence", influences.size(),
               [&](size_t begin, size_t end) {
                 for (size_t i = begin; i < end; ++i) {
                   influences[i] = std::fabs(result.neighbour_outputs[i] - f_x);
                 }
               });
    // max is exactly associative, so reducing the filled array on the
    // driver loses nothing and keeps the result chunking-independent.
    double max_influence = 0.0;
    for (double infl : influences) max_influence = std::max(max_influence, infl);
    result.local_sensitivity = max_influence;
    if (config_.sensitivity_rule == SensitivityRule::kInfluencePercentile) {
      NormalParams fit = FitNormalMle(influences);
      result.local_sensitivity = std::max(
          result.local_sensitivity,
          std::max(0.0, NormalQuantile(fit, config_.hi_percentile / 100.0)));
    }
    result.out_range = Interval{f_x - result.local_sensitivity,
                                f_x + result.local_sensitivity};
  }

  // Degenerate-sensitivity floor: when every sampled neighbour produced
  // the same output, local_sensitivity is 0 and the Laplace scale would be
  // 0 too — the clamped value would be released exactly, noiselessly.
  if (result.local_sensitivity < config_.min_sensitivity) {
    result.degenerate_sensitivity = true;
    result.local_sensitivity = config_.min_sensitivity;
    if (config_.sensitivity_rule == SensitivityRule::kOutputRange) {
      // Keep the rule's invariant width == local_sensitivity.
      double mid = 0.5 * (result.out_range.lo + result.out_range.hi);
      result.out_range = Interval{mid - 0.5 * config_.min_sensitivity,
                                  mid + 0.5 * config_.min_sensitivity};
    } else {
      result.out_range = Interval{f_x - config_.min_sensitivity,
                                  f_x + config_.min_sensitivity};
    }
  }

  // Per-partition outputs f(x_j) = output of R(S'_j) ⊕ R(S_j), at every
  // cut the enforcer may ask for; removals then become lookups.
  const size_t num_cuts =
      config_.enable_enforcer ? enforcer_->max_removals() / 2 + 1 : 1;
  const std::vector<std::vector<Vec>> cuts = SampleCutPartials(
      batches.sample_mapped, sample_partition, num_partitions, num_cuts);
  auto cut_of = [&](size_t removed) -> const std::vector<Vec>& {
    UPA_CHECK_MSG(removed % 2 == 0 && removed / 2 < cuts.size(),
                  "the enforcer removes record pairs up to its cap");
    return cuts[removed / 2];
  };
  auto partition_outputs_for = [&](size_t removed) {
    const std::vector<Vec>& sample_partials = cut_of(removed);
    std::vector<double> outs(num_partitions);
    for (size_t j = 0; j < num_partitions; ++j) {
      outs[j] = query.OutputOf(
          VecSum::Combine(batches.sprime_partials[j], sample_partials[j]));
    }
    return outs;
  };
  result.partition_outputs = partition_outputs_for(0);

  // Point of no return: past this check the query registers in the shared
  // registry and releases. A cancellation observed here still refunds; one
  // arriving later is ignored (the release already happened).
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());

  if (config_.enable_enforcer) {
    // The registry may be shared with other runners (the service shares
    // one per dataset): the Session lock keeps this query's Enforce and
    // Register atomic, so no concurrent release can slip a registration
    // in between and invalidate the fixpoint just computed.
    RangeEnforcer::Session session(*enforcer_);
    result.enforcer =
        session.Enforce(result.partition_outputs, partition_outputs_for);
    if (result.enforcer.records_removed > 0) {
      // x was shrunk: the reduced value without the removed sample records.
      Vec r_s_kept = VecSum::Identity();
      for (const Vec& p : cut_of(result.enforcer.records_removed)) {
        r_s_kept = VecSum::Combine(std::move(r_s_kept), p);
      }
      f_vec = VecSum::Combine(r_sprime, r_s_kept);
    }
    session.Register(result.partition_outputs);
  }

  result.reduced = f_vec;
  result.raw_output = query.OutputOf(f_vec);

  double clamped = result.out_range.Clamp(result.raw_output);
  if (config_.add_noise) {
    Rng noise = Rng::ForStream(seed, "upa/noise/" + query.name);
    result.released_output = dp::LaplaceMechanism(
        clamped, result.local_sensitivity, config_.epsilon, noise);
  } else {
    result.released_output = clamped;
  }
  result.seconds.enforce = phase_watch.ElapsedSeconds();

  result.seconds.total = total_watch.ElapsedSeconds();
  result.metrics = query.ctx->metrics().Snapshot() - metrics_before;
  return result;
}

}  // namespace upa::core
