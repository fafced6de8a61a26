#include "relational/value.h"

#include <cmath>
#include <cstdio>

namespace upa::rel {

ValueType TypeOf(const Value& v) {
  switch (v.index()) {
    case 0:
      return ValueType::kInt;
    case 1:
      return ValueType::kDouble;
    default:
      return ValueType::kString;
  }
}

std::string TypeName(ValueType t) {
  switch (t) {
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

int64_t AsInt(const Value& v) {
  const int64_t* p = std::get_if<int64_t>(&v);
  UPA_CHECK_MSG(p != nullptr, "Value is not an int");
  return *p;
}

const std::string& AsString(const Value& v) {
  const std::string* p = std::get_if<std::string>(&v);
  UPA_CHECK_MSG(p != nullptr, "Value is not a string");
  return *p;
}

double AsNumeric(const Value& v) {
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  if (const double* d = std::get_if<double>(&v)) return *d;
  UPA_CHECK_MSG(false, "Value is not numeric");
  return 0.0;
}

bool IsNumeric(const Value& v) {
  return std::holds_alternative<int64_t>(v) ||
         std::holds_alternative<double>(v);
}

std::string ToString(const Value& v) {
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    return std::to_string(*i);
  }
  if (const double* d = std::get_if<double>(&v)) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", *d);
    return buf;
  }
  return std::get<std::string>(v);
}

int Compare(const Value& a, const Value& b) {
  if (IsNumeric(a) && IsNumeric(b)) {
    double x = AsNumeric(a), y = AsNumeric(b);
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  UPA_CHECK_MSG(!IsNumeric(a) && !IsNumeric(b),
                "cannot compare string with numeric");
  return AsString(a).compare(AsString(b)) < 0
             ? -1
             : (AsString(a) == AsString(b) ? 0 : 1);
}

int TotalOrderCompare(const Value& a, const Value& b) {
  const bool a_str = std::holds_alternative<std::string>(a);
  const bool b_str = std::holds_alternative<std::string>(b);
  if (a_str != b_str) return a_str ? 1 : -1;  // numerics before strings
  if (a_str) {
    const std::string& x = std::get<std::string>(a);
    const std::string& y = std::get<std::string>(b);
    return x < y ? -1 : (y < x ? 1 : 0);
  }
  if (std::holds_alternative<int64_t>(a) &&
      std::holds_alternative<int64_t>(b)) {
    int64_t x = std::get<int64_t>(a), y = std::get<int64_t>(b);
    return x < y ? -1 : (y < x ? 1 : 0);
  }
  double x = AsNumeric(a), y = AsNumeric(b);
  const bool x_nan = std::isnan(x), y_nan = std::isnan(y);
  if (x_nan || y_nan) return x_nan == y_nan ? 0 : (x_nan ? 1 : -1);
  return x < y ? -1 : (x > y ? 1 : 0);
}

bool ValueEquals(const Value& a, const Value& b) {
  if (IsNumeric(a) != IsNumeric(b)) return false;
  return Compare(a, b) == 0;
}

size_t ValueHash::operator()(const Value& v) const {
  if (IsNumeric(v)) {
    // Hash the numeric value so 1 and 1.0 collide (they compare equal).
    double d = AsNumeric(v);
    if (d == static_cast<double>(static_cast<int64_t>(d)) &&
        std::fabs(d) < 9.0e18) {
      return static_cast<size_t>(
          Mix64(static_cast<uint64_t>(static_cast<int64_t>(d))));
    }
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    return static_cast<size_t>(Mix64(bits));
  }
  return static_cast<size_t>(Fnv1a(std::get<std::string>(v)));
}

}  // namespace upa::rel
