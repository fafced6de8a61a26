#include "relational/group_by.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/hash.h"

namespace upa::rel {
namespace {

constexpr double kQuietNaN = std::numeric_limits<double>::quiet_NaN();

double CanonicalDouble(double d) {
  if (std::isnan(d)) return kQuietNaN;
  return d == 0.0 ? 0.0 : d;
}

uint64_t CanonicalBits(double d) {
  return std::bit_cast<uint64_t>(CanonicalDouble(d));
}

}  // namespace

Value CanonicalKey(const Value& v) {
  if (const double* d = std::get_if<double>(&v)) return CanonicalDouble(*d);
  return v;
}

Value KeyIdentity(const Value& v) {
  const double* d = std::get_if<double>(&v);
  if (d == nullptr) return v;
  if (std::isnan(*d)) return kQuietNaN;
  // [-2^63, 2^63): the doubles an int64 can hold exactly.
  if (std::trunc(*d) == *d && *d >= -9223372036854775808.0 &&
      *d < 9223372036854775808.0) {
    return static_cast<int64_t>(*d);
  }
  return *d;
}

size_t KeyRowHash::operator()(const Row& key) const {
  size_t h = key.size();
  for (const Value& v : key) {
    uint64_t part;
    if (const int64_t* i = std::get_if<int64_t>(&v)) {
      part = Mix64(static_cast<uint64_t>(*i));
    } else if (const double* d = std::get_if<double>(&v)) {
      part = Mix64(std::bit_cast<uint64_t>(*d) + 1);
    } else {
      part = Fnv1a(std::get<std::string>(v));
    }
    h = HashCombine(h, part);
  }
  return h;
}

bool KeyRowEq::operator()(const Row& a, const Row& b) const {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].index() != b[k].index()) return false;
    if (const double* x = std::get_if<double>(&a[k])) {
      if (std::bit_cast<uint64_t>(*x) !=
          std::bit_cast<uint64_t>(std::get<double>(b[k]))) {
        return false;
      }
    } else if (a[k] != b[k]) {
      return false;
    }
  }
  return true;
}

uint64_t KeyCode(const Column& col, uint32_t row) {
  switch (col.type) {
    case ValueType::kInt:
      return static_cast<uint64_t>(col.ints[row]);
    case ValueType::kDouble:
      return CanonicalBits(col.doubles[row]);
    case ValueType::kString:
      return col.codes[row];
  }
  return 0;
}

std::optional<uint64_t> KeyCodeOf(const Column& col, const Value& v) {
  const bool is_string = std::holds_alternative<std::string>(v);
  if (is_string != (col.type == ValueType::kString)) return std::nullopt;
  switch (col.type) {
    case ValueType::kInt: {
      const Value id = KeyIdentity(v);
      const int64_t* i = std::get_if<int64_t>(&id);
      if (i == nullptr) return std::nullopt;
      return static_cast<uint64_t>(*i);
    }
    case ValueType::kDouble:
      return CanonicalBits(AsNumeric(v));
    case ValueType::kString: {
      const std::vector<std::string>& dict = *col.dict;
      const std::string& s = std::get<std::string>(v);
      auto it = std::lower_bound(dict.begin(), dict.end(), s);
      if (it == dict.end() || *it != s) return std::nullopt;
      return static_cast<uint64_t>(it - dict.begin());
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// DenseIdMap
// ---------------------------------------------------------------------------

size_t DenseIdMap::Slot(uint64_t key) const {
  const size_t mask = keys_.size() - 1;
  size_t s = Mix64(key) & mask;
  while (ids_[s] != kNone && keys_[s] != key) s = (s + 1) & mask;
  return s;
}

void DenseIdMap::Grow() {
  std::vector<uint64_t> old_keys = std::move(keys_);
  std::vector<uint32_t> old_ids = std::move(ids_);
  const size_t cap = std::max<size_t>(16, old_keys.size() * 2);
  keys_.assign(cap, 0);
  ids_.assign(cap, kNone);
  for (size_t i = 0; i < old_keys.size(); ++i) {
    if (old_ids[i] == kNone) continue;
    const size_t s = Slot(old_keys[i]);
    keys_[s] = old_keys[i];
    ids_[s] = old_ids[i];
  }
}

uint32_t DenseIdMap::Intern(uint64_t key) {
  if ((size_ + 1) * 2 > keys_.size()) Grow();
  const size_t s = Slot(key);
  if (ids_[s] == kNone) {
    keys_[s] = key;
    ids_[s] = static_cast<uint32_t>(size_++);
  }
  return ids_[s];
}

uint32_t DenseIdMap::Find(uint64_t key) const {
  if (keys_.empty()) return kNone;
  return ids_[Slot(key)];
}

// ---------------------------------------------------------------------------
// GroupIndex
// ---------------------------------------------------------------------------

GroupIndex::GroupIndex(std::vector<const Column*> keys)
    : keys_(std::move(keys)), codes_(keys_.size()), pairs_(keys_.size()) {
  UPA_CHECK(!keys_.empty());
}

std::vector<uint32_t> GroupIndex::Assign(
    const std::vector<const uint32_t*>& rows, size_t n) {
  const size_t nk = keys_.size();
  std::vector<uint32_t> gid(n);
  for (size_t p = 0; p < n; ++p) {
    uint32_t id = codes_[0].Intern(KeyCode(*keys_[0], rows[0][p]));
    for (size_t k = 1; k < nk; ++k) {
      const uint32_t local = codes_[k].Intern(KeyCode(*keys_[k], rows[k][p]));
      id = pairs_[k].Intern((static_cast<uint64_t>(id) << 32) | local);
    }
    if (id == num_groups_) {
      ++num_groups_;
      for (size_t k = 0; k < nk; ++k) first_rows_.push_back(rows[k][p]);
    }
    gid[p] = id;
  }
  return gid;
}

Row GroupIndex::Key(uint32_t g) const {
  Row key;
  key.reserve(keys_.size());
  for (size_t k = 0; k < keys_.size(); ++k) {
    const Column& col = *keys_[k];
    const uint32_t r = first_rows_[g * keys_.size() + k];
    switch (col.type) {
      case ValueType::kInt:
        key.emplace_back(std::in_place_type<int64_t>, col.ints[r]);
        break;
      case ValueType::kDouble:
        key.emplace_back(std::in_place_type<double>,
                         CanonicalDouble(col.doubles[r]));
        break;
      case ValueType::kString:
        key.emplace_back(std::in_place_type<std::string>,
                         (*col.dict)[col.codes[r]]);
        break;
    }
  }
  return key;
}

// ---------------------------------------------------------------------------
// Accumulation and results
// ---------------------------------------------------------------------------

void GroupAcc::Merge(const GroupAcc& other) {
  rows += other.rows;
  sum.Merge(other.sum);
  mn = other.mn < mn ? other.mn : mn;
  mx = other.mx > mx ? other.mx : mx;
}

GroupStates::GroupStates(size_t batches, size_t threads, size_t num_groups)
    : num_groups_(num_groups) {
  const size_t max_morsels = 2 * std::max<size_t>(1, threads);
  grain_ = std::max<size_t>(1, (batches + max_morsels - 1) / max_morsels);
  states_.resize((batches + grain_ - 1) / grain_);
}

GroupAcc* GroupStates::For(size_t b0) {
  std::vector<GroupAcc>& state = states_[b0 / grain_];
  state.resize(num_groups_);
  return state.data();
}

ExecResult GroupStates::Finish(AggKind agg, const GroupIndex& index) {
  std::vector<GroupAcc> merged(num_groups_);
  for (const std::vector<GroupAcc>& s : states_) {
    for (size_t g = 0; g < s.size(); ++g) merged[g].Merge(s[g]);
  }
  std::vector<Row> keys(num_groups_);
  for (size_t g = 0; g < num_groups_; ++g) {
    keys[g] = index.Key(static_cast<uint32_t>(g));
  }
  ExecResult result;
  FinishGroups(agg, keys, merged, result);
  return result;
}

void FinishGroups(AggKind agg, const std::vector<Row>& keys,
                  const std::vector<GroupAcc>& accs, ExecResult& result) {
  std::vector<size_t> order;
  for (size_t g = 0; g < accs.size(); ++g) {
    if (accs[g].rows > 0) order.push_back(g);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < keys[a].size(); ++k) {
      const int c = TotalOrderCompare(keys[a][k], keys[b][k]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  result.result_rows = 0;
  result.group_keys.reserve(order.size());
  result.group_outputs.reserve(order.size());
  result.group_rows.reserve(order.size());
  for (size_t g : order) {
    const GroupAcc& acc = accs[g];
    const double rows = static_cast<double>(acc.rows);
    double out = 0.0;
    switch (agg) {
      case AggKind::kCount: out = rows; break;
      case AggKind::kSum: out = acc.sum.Round(); break;
      case AggKind::kAvg: out = acc.sum.Round() / rows; break;
      case AggKind::kMin: out = acc.mn; break;
      case AggKind::kMax: out = acc.mx; break;
    }
    result.group_keys.push_back(keys[g]);
    result.group_outputs.push_back(out);
    result.group_rows.push_back(acc.rows);
    result.result_rows += acc.rows;
  }
}

Result<std::vector<size_t>> GroupKeyPositions(const PlanNode& plan,
                                              const Schema& schema) {
  std::vector<size_t> pos;
  pos.reserve(plan.group_by.size());
  for (const std::string& key : plan.group_by) {
    std::optional<size_t> p = schema.Find(key);
    if (!p) {
      return Status::InvalidArgument("group by references unknown column: " +
                                     key);
    }
    pos.push_back(*p);
  }
  return pos;
}

}  // namespace upa::rel
