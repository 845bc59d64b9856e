// Minimal JSON document model used by the observability layer: the
// RunReport writer builds a Value tree and serialises it; the report
// checker and the obs tests parse emitted documents back. This is not a
// general-purpose JSON library — it supports exactly the subset the run
// reports and trace files use (null, bool, finite numbers, strings,
// arrays, objects; UTF-8 passed through verbatim, \uXXXX escapes written
// for control characters only).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace vp::obs::json {

class Value;

using Array = std::vector<Value>;
// std::map keeps report keys sorted, so emitted documents are diffable.
using Object = std::map<std::string, Value>;

class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  // One constructor for every numeric type (JSON has only one number
  // kind); an overload set would collide where e.g. size_t == uint64_t.
  template <typename T,
            std::enable_if_t<std::is_arithmetic_v<T> &&
                                 !std::is_same_v<T, bool>,
                             int> = 0>
  Value(T n) : v_(static_cast<double>(n)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  // Typed accessors; throw InvalidArgument on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  // Object convenience: member lookup (nullptr when absent / not an object).
  const Value* find(const std::string& key) const;

  // Serialises the tree. `indent` > 0 pretty-prints with that many spaces
  // per level; 0 emits the compact single-line form (used for JSONL).
  std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

// Parses one JSON document; trailing whitespace is allowed, anything else
// after the document throws InvalidArgument (as does any syntax error).
Value parse(std::string_view text);

// Appends the JSON string escape of `s` (including the quotes) to `out`.
void escape_string(std::string_view s, std::string& out);

// Validator helper: `object` has a numeric member `key`, or returns false
// with "<where>: missing or non-numeric \"<key>\"" in *error.
bool require_number(const Value& object, const char* key,
                    const std::string& where, std::string* error);

}  // namespace vp::obs::json
