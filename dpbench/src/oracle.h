// The benchmark's own answers and checks. Nothing here calls the program's
// query engines: every true answer f(x) is computed with plain loops over
// Table::rows() (and a hash join built here for the join shape), and every
// release is judged from its `released` value alone.
//
// Release check (per release). The default sensitivity rule bounds the
// inferred local sensitivity by the most one record can change the answer,
// Δ, and the released value is clamp(raw) + noise with the clamp range
// centred on f(x) and at most Δ wide on each side. So, for Laplace noise
// calibrated to any scale up to 2Δ/ε (today's Δ_local/ε, or the range
// width 2·Δ_local the roadmap may switch to),
//
//     |released − f(x)| ≤ Δ + 2·T·Δ/ε      except with probability e^−T,
//
// with T = kTailT (e^−30 ≈ 1e-13 per release). Δ is the maximum of the
// per-record contribution over the private table and over the generator's
// sampling domain (TpchDataset::SampleRow), computed here. A release
// calibrated to a different query's sensitivity — e.g. a SUM released with
// a COUNT's cached range — lands orders of magnitude outside the bound.
//
// Workload checks (over all releases): the mean deviation, in units of Δ,
// lies within ±1 (the most the enforcer's record removals plus the clamp
// may shift the noiseless value) plus kMeanSigmas standard errors — the
// noise is symmetric; no shape releases the same value every time; and
// every shape released at least once in the timed window.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "relational/sql_exec.h"
#include "relational/table.h"
#include "tpch/generator.h"

namespace dpbench {

namespace rel = upa::rel;

inline constexpr double kTailT = 30.0;
inline constexpr double kMeanSigmas = 5.0;

/// `column op literal` with a numeric literal. The literal is kept as the
/// exact text sent in the SQL and parsed back with strtod, so the program
/// and the oracle compare against the same double.
struct Pred {
  enum class Op { kLt, kGe };
  std::string column;
  Op op = Op::kLt;
  std::string literal;

  std::string Sql() const;
};

/// A DP release template: COUNT(*) or SUM(column) over one table, or over
/// orders JOIN lineitem ON o_orderkey = l_orderkey, with a conjunction of
/// predicates. `private_table` is the wire dataset_id.
struct ReleaseShape {
  std::string label;  // template name, for per-shape statistics
  std::string private_table;
  bool join = false;
  std::string table;  // scanned table when !join
  bool sum = false;
  std::string sum_column;
  std::vector<Pred> preds;

  std::string Sql() const;
};

/// A grouped SELECT template: key, COUNT(*) AS n [, SUM(col) AS s] with
/// optional HAVING COUNT(*) > k, an ORDER BY and a LIMIT.
struct GroupShape {
  enum class Order { kKey, kCountDesc, kSumDesc, kSumAsc };
  std::string label;
  bool join = false;
  std::string table;  // when !join
  std::string key;
  bool sum = false;
  std::string sum_column;
  std::vector<Pred> preds;
  int64_t having_min_count = -1;  // HAVING COUNT(*) > k when >= 0
  Order order = Order::kKey;
  int64_t limit = -1;

  std::string Sql() const;
};

/// Expected answer and per-record bound of one release.
struct ReleaseTruth {
  double value = 0.0;  // f(x)
  double delta = 0.0;  // Δ
};

/// One expected group.
struct GroupRow {
  rel::Value key;
  double count = 0.0;
  double sum = 0.0;
};

/// Evaluates templates over the generated tables' rows. Holds no copy of
/// the data, only the join index.
class Oracle {
 public:
  explicit Oracle(const upa::tpch::TpchDataset& data);

  ReleaseTruth Evaluate(const ReleaseShape& shape) const;
  /// All groups that survive WHERE and HAVING (in key order; ORDER BY and
  /// LIMIT are applied by CompareGroups).
  std::vector<GroupRow> EvaluateGroups(const GroupShape& shape) const;

  /// Largest |value| the generator's sampling domain can give `column`.
  double DomainMax(const std::string& column) const;

 private:
  const upa::tpch::TpchDataset& data_;
  /// lineitem row → orders row: the build side of the oracle's own hash
  /// join on o_orderkey = l_orderkey.
  std::vector<size_t> lineitem_order_;
};

/// Accumulates release observations and reports every violated property.
class ReleaseChecker {
 public:
  explicit ReleaseChecker(double epsilon) : epsilon_(epsilon) {}

  /// Names a shape that must release at least once in the timed window.
  void Expect(const std::string& label) { shapes_[label]; }
  /// Checks one release against its truth; remembers it for the
  /// workload-level properties. `in_window`: released in the timed window
  /// rather than in the warm-up.
  void Observe(const std::string& label, const ReleaseTruth& truth,
               double released, bool in_window);
  /// Runs the workload-level properties. Returns every violation
  /// (empty = all checks passed), including per-release ones. A window
  /// without releases, or an expected shape without one, is a violation.
  std::vector<std::string> Finish() const;

  size_t observed() const { return observed_; }
  /// Bound on |released − f(x)| for a release with per-record bound Δ.
  double Bound(const ReleaseTruth& truth) const;

 private:
  struct ShapeStats {
    size_t n = 0;
    size_t in_window = 0;
    double first = 0.0;
    bool varied = false;
  };
  double epsilon_;
  size_t observed_ = 0;
  size_t in_window_ = 0;
  double sum_norm_ = 0.0;
  double sum_norm_sq_ = 0.0;
  std::map<std::string, ShapeStats> shapes_;
  std::vector<std::string> violations_;
};

/// Compares one ExecuteSelect result with the oracle's groups: every
/// returned group must exist with an identical count and a sum equal to a
/// relative 1e-9; the rows must be in ORDER BY order (ties in either
/// order); the row count must be min(LIMIT, groups); and with a LIMIT no
/// omitted group may sort strictly before the last returned one. Returns
/// "" when the result is correct, else the first discrepancy.
std::string CompareGroups(const GroupShape& shape,
                          const std::vector<GroupRow>& expected,
                          const rel::SqlResultSet& actual);

/// Operation counts: a run must attempt something and every attempt must
/// succeed. Returns "" when the counts are sound, else what is wrong.
std::string CheckCounts(uint64_t attempted, uint64_t failed);

/// Budget conservation: `releases` successful releases at `epsilon` each
/// must have spent exactly epsilon × releases (to rounding).
bool SpentMatches(double spent, uint64_t releases, double epsilon);

}  // namespace dpbench
