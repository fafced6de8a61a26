#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

namespace dpbench {

namespace {

// The oracle reads cells itself rather than through the program's value
// helpers.
double Num(const rel::Value& v) {
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  if (const double* d = std::get_if<double>(&v)) return *d;
  std::fprintf(stderr, "dpbench: numeric cell expected\n");
  std::abort();
}

bool KeyLess(const rel::Value& a, const rel::Value& b) {
  if (a.index() != b.index()) return a.index() < b.index();
  return a < b;  // same alternative: int64, double or string order
}

std::string KeyText(const rel::Value& v) {
  if (const std::string* s = std::get_if<std::string>(&v)) return *s;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", Num(v));
  return buf;
}

double ParseLiteral(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

/// Where a column lives in the scanned relation: the base table, or the
/// orders side of orders JOIN lineitem.
struct Cell {
  bool on_orders = false;
  size_t index = 0;
};

/// The relation a template scans — one table, or orders JOIN lineitem
/// through the oracle's own join index — read row by row.
class Relation {
 public:
  Relation(const upa::tpch::TpchDataset& data,
           const std::vector<size_t>& lineitem_order, bool join,
           const std::string& table)
      : base_(join ? data.lineitem() : data.table(table)),
        orders_(join ? &data.orders() : nullptr),
        lineitem_order_(lineitem_order) {}

  Cell Bind(const std::string& column) const {
    if (orders_ != nullptr && !base_.schema().Has(column)) {
      return Cell{true, orders_->schema().IndexOf(column)};
    }
    return Cell{false, base_.schema().IndexOf(column)};
  }

  /// Calls visit(cell, order_row) for every row that satisfies `preds`:
  /// cell(c) reads column c of that row, order_row is the joined orders
  /// row's index (0 without a join).
  template <typename Visit>
  void ForEachPassing(const std::vector<Pred>& preds, Visit visit) const {
    std::vector<std::pair<Cell, double>> bound;
    for (const Pred& p : preds) {
      bound.emplace_back(Bind(p.column), ParseLiteral(p.literal));
    }
    for (size_t i = 0; i < base_.NumRows(); ++i) {
      const rel::Row& row = base_.rows()[i];
      const rel::Row* order = nullptr;
      size_t order_row = 0;
      if (orders_ != nullptr) {
        order_row = lineitem_order_[i];
        if (order_row == SIZE_MAX) continue;
        order = &orders_->rows()[order_row];
      }
      auto cell = [&](const Cell& c) -> const rel::Value& {
        return c.on_orders ? (*order)[c.index] : row[c.index];
      };
      bool pass = true;
      for (size_t k = 0; k < bound.size() && pass; ++k) {
        const double v = Num(cell(bound[k].first));
        pass = preds[k].op == Pred::Op::kLt ? v < bound[k].second
                                            : v >= bound[k].second;
      }
      if (pass) visit(cell, order_row);
    }
  }

 private:
  const rel::Table& base_;
  const rel::Table* orders_;
  const std::vector<size_t>& lineitem_order_;
};

std::string RelationSql(bool join, const std::string& table) {
  return join ? "orders JOIN lineitem ON o_orderkey = l_orderkey" : table;
}

std::string WhereSql(const std::vector<Pred>& preds) {
  std::string out;
  for (size_t i = 0; i < preds.size(); ++i) {
    out += (i == 0 ? " WHERE " : " AND ") + preds[i].Sql();
  }
  return out;
}

}  // namespace

std::string Pred::Sql() const {
  return column + (op == Op::kLt ? " < " : " >= ") + literal;
}

std::string ReleaseShape::Sql() const {
  std::string agg = sum ? "SUM(" + sum_column + ")" : "COUNT(*)";
  return "SELECT " + agg + " FROM " + RelationSql(join, table) +
         WhereSql(preds);
}

std::string GroupShape::Sql() const {
  std::string sql = "SELECT " + key + ", COUNT(*) AS n";
  if (sum) sql += ", SUM(" + sum_column + ") AS s";
  sql += " FROM " + RelationSql(join, table) + WhereSql(preds);
  sql += " GROUP BY " + key;
  if (having_min_count >= 0) {
    sql += " HAVING COUNT(*) > " + std::to_string(having_min_count);
  }
  switch (order) {
    case Order::kKey: sql += " ORDER BY " + key; break;
    case Order::kCountDesc: sql += " ORDER BY n DESC, " + key; break;
    case Order::kSumDesc: sql += " ORDER BY s DESC, " + key; break;
    case Order::kSumAsc: sql += " ORDER BY s, " + key; break;
  }
  if (limit >= 0) sql += " LIMIT " + std::to_string(limit);
  return sql;
}

Oracle::Oracle(const upa::tpch::TpchDataset& data) : data_(data) {
  const rel::Table& orders = data.orders();
  const rel::Table& lineitem = data.lineitem();
  const size_t o_key = orders.schema().IndexOf("o_orderkey");
  const size_t l_key = lineitem.schema().IndexOf("l_orderkey");
  std::unordered_map<int64_t, size_t> build;
  build.reserve(orders.NumRows());
  for (size_t i = 0; i < orders.NumRows(); ++i) {
    build.emplace(std::get<int64_t>(orders.rows()[i][o_key]), i);
  }
  lineitem_order_.assign(lineitem.NumRows(), SIZE_MAX);
  for (size_t i = 0; i < lineitem.NumRows(); ++i) {
    auto it = build.find(std::get<int64_t>(lineitem.rows()[i][l_key]));
    if (it != build.end()) lineitem_order_[i] = it->second;
  }
}

double Oracle::DomainMax(const std::string& column) const {
  // Ranges of TpchDataset::Make*Row / SampleRow for the given config.
  const upa::tpch::TpchConfig& c = data_.config();
  const double last_day = static_cast<double>(upa::tpch::kDateSpanDays - 1);
  const std::map<std::string, double> bounds = {
      {"l_quantity", 50.0},
      {"l_extendedprice", 50.0 * 1100.0},
      {"l_discount", 0.10},
      {"l_shipdate", last_day},
      {"l_commitdate", last_day},
      {"l_receiptdate", last_day},
      {"l_partkey", static_cast<double>(c.num_parts())},
      {"l_suppkey", static_cast<double>(c.num_suppliers())},
      {"o_orderdate", last_day},
      {"o_custkey", static_cast<double>(c.num_customers())},
      {"c_nationkey", static_cast<double>(c.kNumNations - 1)},
      {"p_size", 50.0},
      {"ps_availqty", 9999.0},
      {"ps_supplycost", 1000.0},
  };
  auto it = bounds.find(column);
  if (it == bounds.end()) {
    std::fprintf(stderr, "dpbench: no domain bound for %s\n", column.c_str());
    std::abort();
  }
  return it->second;
}

ReleaseTruth Oracle::Evaluate(const ReleaseShape& shape) const {
  const Relation relation(data_, lineitem_order_, shape.join, shape.table);
  const Cell sum_col = shape.sum ? relation.Bind(shape.sum_column) : Cell{};
  long double total = 0.0L;
  double private_max = 0.0;
  const bool per_order = shape.join && shape.private_table == "orders";
  std::vector<long double> order_contrib(
      per_order ? data_.orders().NumRows() : 0);
  relation.ForEachPassing(shape.preds, [&](const auto& cell, size_t order_row) {
    const double contrib = shape.sum ? Num(cell(sum_col)) : 1.0;
    total += contrib;
    if (per_order) {
      order_contrib[order_row] += contrib;
    } else {
      private_max = std::max(private_max, std::fabs(contrib));
    }
  });
  for (long double c : order_contrib) {
    private_max = std::max(private_max, static_cast<double>(std::fabs(c)));
  }

  // Sampling domain: a sampled lineitem (or single-table record) may take
  // any value of the generator's range; a sampled order gets a fresh
  // o_orderkey and joins no lineitem, so it contributes nothing.
  double domain_max = 0.0;
  if (!per_order) domain_max = shape.sum ? DomainMax(shape.sum_column) : 1.0;

  ReleaseTruth truth;
  truth.value = static_cast<double>(total);
  truth.delta = std::max(private_max, domain_max);
  return truth;
}

std::vector<GroupRow> Oracle::EvaluateGroups(const GroupShape& shape) const {
  const Relation relation(data_, lineitem_order_, shape.join, shape.table);
  const Cell key_col = relation.Bind(shape.key);
  const Cell sum_col = shape.sum ? relation.Bind(shape.sum_column) : Cell{};
  struct Acc {
    double count = 0.0;
    long double sum = 0.0L;
  };
  std::map<rel::Value, Acc, bool (*)(const rel::Value&, const rel::Value&)>
      groups(&KeyLess);
  relation.ForEachPassing(shape.preds, [&](const auto& cell, size_t) {
    Acc& acc = groups[cell(key_col)];
    acc.count += 1.0;
    if (shape.sum) acc.sum += Num(cell(sum_col));
  });

  std::vector<GroupRow> out;
  for (const auto& [key, acc] : groups) {
    if (shape.having_min_count >= 0 &&
        !(acc.count > static_cast<double>(shape.having_min_count))) {
      continue;
    }
    out.push_back(GroupRow{key, acc.count, static_cast<double>(acc.sum)});
  }
  return out;
}

double ReleaseChecker::Bound(const ReleaseTruth& truth) const {
  return truth.delta + 2.0 * kTailT * truth.delta / epsilon_ +
         1e-9 * std::max(1.0, std::fabs(truth.value));
}

void ReleaseChecker::Observe(const std::string& label,
                             const ReleaseTruth& truth, double released,
                             bool in_window) {
  ++observed_;
  if (in_window) ++in_window_;
  const double dev = released - truth.value;
  if (!std::isfinite(released) || std::fabs(dev) > Bound(truth)) {
    if (violations_.size() < 10) {
      std::ostringstream msg;
      msg.precision(17);
      msg << label << ": released " << released << " but f(x) = "
          << truth.value << " (|diff| " << std::fabs(dev) << " > bound "
          << Bound(truth) << ", delta " << truth.delta << ")";
      violations_.push_back(msg.str());
    } else if (violations_.size() == 10) {
      violations_.push_back("... further release violations omitted");
    }
  }
  const double norm = truth.delta > 0.0 ? dev / truth.delta : 0.0;
  if (std::isfinite(norm)) {
    sum_norm_ += norm;
    sum_norm_sq_ += norm * norm;
  }
  ShapeStats& s = shapes_[label];
  if (s.n == 0) {
    s.first = released;
  } else if (released != s.first) {
    s.varied = true;
  }
  ++s.n;
  if (in_window) ++s.in_window;
}

std::vector<std::string> ReleaseChecker::Finish() const {
  std::vector<std::string> out = violations_;
  if (observed_ >= 2) {
    const double n = static_cast<double>(observed_);
    const double mean = sum_norm_ / n;
    const double var = std::max(0.0, sum_norm_sq_ / n - mean * mean);
    const double se = std::sqrt(var / n);
    if (std::fabs(mean) > 1.0 + kMeanSigmas * se) {
      std::ostringstream msg;
      msg << "mean deviation " << mean << " delta over " << observed_
          << " releases exceeds 1 + " << kMeanSigmas << " SE (SE " << se
          << ")";
      out.push_back(msg.str());
    }
  }
  if (in_window_ == 0) out.push_back("no release in the timed window");
  for (const auto& [label, s] : shapes_) {
    if (s.n >= 2 && !s.varied) {
      out.push_back(label + ": all " + std::to_string(s.n) +
                    " releases are equal");
    }
    if (s.in_window == 0) {
      out.push_back(label + ": no release in the timed window");
    }
  }
  return out;
}

std::string CheckCounts(uint64_t attempted, uint64_t failed) {
  if (attempted == 0) return "no operation attempted";
  if (failed > 0) {
    return std::to_string(failed) + " of " + std::to_string(attempted) +
           " operations failed";
  }
  return "";
}

std::string CompareGroups(const GroupShape& shape,
                          const std::vector<GroupRow>& expected,
                          const rel::SqlResultSet& actual) {
  const size_t width = shape.sum ? 3 : 2;
  if (actual.columns.size() != width) {
    return "expected " + std::to_string(width) + " columns, got " +
           std::to_string(actual.columns.size());
  }
  size_t want = expected.size();
  if (shape.limit >= 0) {
    want = std::min(want, static_cast<size_t>(shape.limit));
  }
  if (actual.rows.size() != want) {
    return "expected " + std::to_string(want) + " rows, got " +
           std::to_string(actual.rows.size());
  }

  auto sum_tol = [](double a, double b) {
    return 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
  };
  // a strictly before b in ORDER BY order; sums within tolerance tie and
  // may come in either order.
  auto before = [&](const GroupRow& a, const GroupRow& b) {
    switch (shape.order) {
      case GroupShape::Order::kKey: break;
      case GroupShape::Order::kCountDesc:
        if (a.count != b.count) return a.count > b.count;
        break;
      case GroupShape::Order::kSumDesc:
      case GroupShape::Order::kSumAsc:
        if (std::fabs(a.sum - b.sum) > sum_tol(a.sum, b.sum)) {
          return shape.order == GroupShape::Order::kSumDesc ? a.sum > b.sum
                                                             : a.sum < b.sum;
        }
        return false;
    }
    return KeyLess(a.key, b.key);
  };

  std::map<rel::Value, const GroupRow*,
           bool (*)(const rel::Value&, const rel::Value&)>
      by_key(&KeyLess);
  for (const GroupRow& g : expected) by_key[g.key] = &g;

  std::vector<GroupRow> got;
  std::map<rel::Value, bool, bool (*)(const rel::Value&, const rel::Value&)>
      seen(&KeyLess);
  for (const rel::Row& row : actual.rows) {
    if (row.size() != width) return "row width mismatch";
    GroupRow g{row[0], Num(row[1]), shape.sum ? Num(row[2]) : 0.0};
    auto it = by_key.find(g.key);
    if (it == by_key.end()) return "unexpected group " + KeyText(g.key);
    if (seen.count(g.key)) return "duplicate group " + KeyText(g.key);
    seen[g.key] = true;
    const GroupRow& e = *it->second;
    if (g.count != e.count) {
      return "group " + KeyText(g.key) + ": count " + KeyText(row[1]) +
             " != " + std::to_string(e.count);
    }
    if (shape.sum && std::fabs(g.sum - e.sum) > sum_tol(g.sum, e.sum)) {
      return "group " + KeyText(g.key) + ": sum " + KeyText(row[2]) +
             " != " + KeyText(rel::Value{e.sum});
    }
    got.push_back(std::move(g));
  }
  for (size_t i = 1; i < got.size(); ++i) {
    if (before(got[i], got[i - 1])) {
      return "rows out of order at " + std::to_string(i) + " (group " +
             KeyText(got[i].key) + ")";
    }
  }
  if (want < expected.size() && !got.empty()) {
    for (const GroupRow& e : expected) {
      if (!seen.count(e.key) && before(e, got.back())) {
        return "LIMIT dropped group " + KeyText(e.key) +
               " that sorts before the last returned row";
      }
    }
  }
  return "";
}

bool SpentMatches(double spent, uint64_t releases, double epsilon) {
  const double want = epsilon * static_cast<double>(releases);
  return std::fabs(spent - want) <= 1e-9 * std::max(1.0, want);
}

}  // namespace dpbench
