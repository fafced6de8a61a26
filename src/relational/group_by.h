// GROUP BY support shared by the three engines (executor.cpp, columnar.cpp,
// fused.cpp) and by ExecuteSelect's output ordering (sql_exec.cpp).
//
// Key identity. Group keys compare as the engine's Compare does, except
// that NaN equals only NaN: -0.0 and 0.0 form one group, every NaN key
// forms one NaN group, and each row lands in exactly one group. In
// physical form a key cell's identity is its int64 payload, its canonical
// double bits (-0.0 read as 0.0, every NaN as one quiet NaN) or its
// dictionary code (KeyCode). The row oracle reaches the same partition
// from Values (executor.cpp keys its hash map on KeyIdentity).
//
// Reported keys are canonical: a group reports the value of its members
// with -0.0 as 0.0 and NaN as the quiet NaN (CanonicalKey), so every
// engine reports the same bits for a group. An engine reports its groups
// in key order (TotalOrderCompare, key by key), which makes results
// comparable across engines index by index; ExecuteSelect re-sorts them
// into its own output order.
//
// One caveat: in a row-store column that mixes int and double cells the
// columnar engines see doubles (ColumnarTable types such a column double),
// so two ints above 2^53 that round to one double share a group there and
// not in the row oracle. Generated and loaded tables type each column
// uniformly.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/exact_sum.h"
#include "relational/columnar.h"
#include "relational/executor.h"
#include "relational/plan.h"

namespace upa::rel {

/// The reported form of a group key cell: -0.0 → 0.0, NaN → quiet NaN,
/// anything else unchanged.
Value CanonicalKey(const Value& v);

/// The identity the row oracle groups by: strings and ints as they are,
/// NaN as the quiet NaN, an integral double as the int64 it equals (so a
/// row-store 1 and 1.0 share a group, as they compare equal), any other
/// double as itself. Equal identities are equal as Values (NaN included,
/// since there is only one NaN identity), so Row hashing and equality over
/// identities can be plain bitwise ones (KeyRowHash / KeyRowEq).
Value KeyIdentity(const Value& v);

struct KeyRowHash {
  size_t operator()(const Row& key) const;
};
struct KeyRowEq {
  bool operator()(const Row& a, const Row& b) const;
};

/// Identity of physical cell `row` of a key column (see the file comment).
uint64_t KeyCode(const Column& col, uint32_t row);

/// Identity a key Value would have in `col`'s physical form, or nullopt
/// when no cell of `col` can have it (a string absent from the
/// dictionary, a string against a numeric column, or the reverse).
std::optional<uint64_t> KeyCodeOf(const Column& col, const Value& v);

/// uint64 → dense uint32 ids, handed out in first-insertion order
/// (open addressing, linear probing).
class DenseIdMap {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  /// The id of `key`, assigning the next one when `key` is new.
  uint32_t Intern(uint64_t key);
  /// The id of `key`, or kNone.
  uint32_t Find(uint64_t key) const;
  size_t size() const { return size_; }

 private:
  size_t Slot(uint64_t key) const;
  void Grow();

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> ids_;  // kNone = empty slot
  size_t size_ = 0;
};

/// Dense group ids over physical key columns: one id per distinct key
/// tuple, in first-appearance order over the positions assigned.
class GroupIndex {
 public:
  explicit GroupIndex(std::vector<const Column*> keys);

  /// Group id of relation positions [0, n), where key k's physical row at
  /// position p is rows[k][p].
  std::vector<uint32_t> Assign(const std::vector<const uint32_t*>& rows,
                               size_t n);

  size_t num_groups() const { return num_groups_; }
  /// Canonical key tuple of group `g`.
  Row Key(uint32_t g) const;

 private:
  std::vector<const Column*> keys_;
  /// One map per key from KeyCode to a per-key id; for keys after the
  /// first, one more map from (id so far, per-key id) to the next id.
  std::vector<DenseIdMap> codes_;
  std::vector<DenseIdMap> pairs_;
  /// Physical rows of each group's first member, key-major per group.
  std::vector<uint32_t> first_rows_;
  size_t num_groups_ = 0;
};

/// Aggregation state of one group.
struct GroupAcc {
  size_t rows = 0;
  ExactSum sum;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();

  /// Exact and order-free: sums are exact, min/max associative.
  void Merge(const GroupAcc& other);
};

/// The per-morsel dense group states of one columnar grouped pass: each
/// morsel folds into its own state and Finish merges them (exact sums
/// commute and min/max are associative, so the merge order cannot change
/// a bit). The grain caps the morsel count at two per pool thread.
class GroupStates {
 public:
  GroupStates(size_t batches, size_t threads, size_t num_groups);

  /// Batches per morsel: the grain the pass must schedule with.
  size_t grain() const { return grain_; }
  /// State of the morsel starting at batch `b0` (sized on first use).
  GroupAcc* For(size_t b0);
  /// The grouped result: merged states, keys from `index` (FinishGroups).
  ExecResult Finish(AggKind agg, const GroupIndex& index);

 private:
  size_t grain_;
  size_t num_groups_;
  std::vector<std::vector<GroupAcc>> states_;
};

/// Fills `result`'s per-group columns from `keys[g]` / `accs[g]` (groups
/// without rows are dropped), sorted by key, and sets result_rows to the
/// total row count.
void FinishGroups(AggKind agg, const std::vector<Row>& keys,
                  const std::vector<GroupAcc>& accs, ExecResult& result);

/// Positions of plan->group_by in `schema`, or kInvalidArgument naming the
/// first key the relation does not provide.
Result<std::vector<size_t>> GroupKeyPositions(const PlanNode& plan,
                                              const Schema& schema);

}  // namespace upa::rel
