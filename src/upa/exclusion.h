// Exclusion aggregation: R(S \ s_i) for every i.
//
// Algorithm 1 (lines 10–11) computes, for each sampled record s_i, the
// reduction of the sample set with s_i excluded. The paper's loop does this
// naively — O(n²) combines. Because the reducer is associative and
// commutative, the same n values can be obtained from prefix and suffix
// scans in O(n) combines:
//
//   excl[i] = prefix[i-1] ⊕ suffix[i+1]
//
// kParallelScan computes them in chunked form: each fixed-size block
// computes its local prefix/suffix arrays independently (parallel on the
// engine thread pool), a cheap sequential pass folds the block totals into
// per-block before/after values, and a second parallel pass emits
//
//   excl[i] = (before[c] ⊕ local_prefix) ⊕ (local_suffix ⊕ after[c]).
//
// Block boundaries depend only on n — never on the pool size — and every
// fold has a fixed association order, so the result is bit-identical
// whether it runs on 1 thread, N threads, or with no pool at all.
//
// kNaive is kept for the ablation only; the two must agree to float
// tolerance (tested), and bench_ablation / bench_phase_parallel measure the
// gap the scan and the parallelism buy.
#pragma once

#include <vector>

#include "upa/types.h"

namespace upa {
class ThreadPool;
}  // namespace upa

namespace upa::core {

enum class ExclusionStrategy {
  kNaive,         // the paper's loop: recombine n-1 values for each i
  kParallelScan,  // chunked prefix/suffix block-scan: O(n) combines total,
                  // on the engine pool when given one (deterministic)
};

/// excl[i] = R over {mapped[j] : j != i}. mapped must be non-empty.
/// `pool` is used by kParallelScan only; when null the same chunked
/// algorithm runs on the calling thread with an identical result. An
/// unknown strategy value aborts (UPA_CHECK) — a misconfigured enum must
/// never yield an empty exclusion set the runner would index out of range.
std::vector<Vec> ExclusionAggregate(const std::vector<Vec>& mapped,
                                    ExclusionStrategy strategy,
                                    ThreadPool* pool = nullptr);

/// Total reduction R(mapped) (shared by both strategies).
Vec TotalAggregate(const std::vector<Vec>& mapped);

}  // namespace upa::core
