// Value: the dynamic cell type of the relational layer (SparkSQL subset).
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/hash.h"
#include "common/status.h"

namespace upa::rel {

using Value = std::variant<int64_t, double, std::string>;

enum class ValueType { kInt, kDouble, kString };

ValueType TypeOf(const Value& v);
std::string TypeName(ValueType t);

/// Strict accessors: abort on type mismatch (schema violations are bugs).
int64_t AsInt(const Value& v);
const std::string& AsString(const Value& v);

/// Numeric view: int64 or double. Aborts on strings.
double AsNumeric(const Value& v);

/// True if the value is int or double.
bool IsNumeric(const Value& v);

/// Render for debugging / table output.
std::string ToString(const Value& v);

/// Three-way comparison: numerics compare numerically across int/double,
/// strings lexicographically. Comparing a string with a numeric aborts.
int Compare(const Value& a, const Value& b);

/// Total-order comparator over Values, safe for std::sort (unlike Compare,
/// whose NaN-equals-everything contract breaks strict weak ordering).
/// Numerics sort before strings, NaN after every number; int/int compares
/// exactly. Returns <0, 0, >0.
int TotalOrderCompare(const Value& a, const Value& b);

/// Equality consistent with Compare (1 == 1.0).
bool ValueEquals(const Value& a, const Value& b);

/// Hash consistent with ValueEquals for values of the same type family.
struct ValueHash {
  size_t operator()(const Value& v) const;
};

struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return ValueEquals(a, b);
  }
};

}  // namespace upa::rel
