#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.h"

namespace vp::obs::json {

bool Value::as_bool() const {
  if (!is_bool()) throw InvalidArgument("JSON value is not a bool");
  return std::get<bool>(v_);
}

double Value::as_number() const {
  if (!is_number()) throw InvalidArgument("JSON value is not a number");
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  if (!is_string()) throw InvalidArgument("JSON value is not a string");
  return std::get<std::string>(v_);
}

const Array& Value::as_array() const {
  if (!is_array()) throw InvalidArgument("JSON value is not an array");
  return std::get<Array>(v_);
}

const Object& Value::as_object() const {
  if (!is_object()) throw InvalidArgument("JSON value is not an object");
  return std::get<Object>(v_);
}

Array& Value::as_array() {
  if (!is_array()) throw InvalidArgument("JSON value is not an array");
  return std::get<Array>(v_);
}

Object& Value::as_object() {
  if (!is_object()) throw InvalidArgument("JSON value is not an object");
  return std::get<Object>(v_);
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Object& o = std::get<Object>(v_);
  const auto it = o.find(key);
  return it == o.end() ? nullptr : &it->second;
}

void escape_string(std::string_view s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

namespace {

void append_number(double d, std::string& out) {
  if (!std::isfinite(d)) throw InvalidArgument("JSON cannot encode non-finite");
  // Integers (the common case: counters, ns totals) print without a
  // fraction; everything else gets shortest round-trip formatting.
  if (d == std::floor(d) && std::fabs(d) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    out += buf;
    return;
  }
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, r.ptr);
}

void append_indent(std::string& out, int indent, int depth) {
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(v_) ? "true" : "false";
  } else if (is_number()) {
    append_number(std::get<double>(v_), out);
  } else if (is_string()) {
    escape_string(std::get<std::string>(v_), out);
  } else if (is_array()) {
    const Array& a = std::get<Array>(v_);
    if (a.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    bool first = true;
    for (const Value& v : a) {
      if (!first) out.push_back(',');
      first = false;
      if (indent > 0) append_indent(out, indent, depth + 1);
      v.dump_to(out, indent, depth + 1);
    }
    if (indent > 0) append_indent(out, indent, depth);
    out.push_back(']');
  } else {
    const Object& o = std::get<Object>(v_);
    if (o.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, v] : o) {
      if (!first) out.push_back(',');
      first = false;
      if (indent > 0) append_indent(out, indent, depth + 1);
      escape_string(key, out);
      out += indent > 0 ? ": " : ":";
      v.dump_to(out, indent, depth + 1);
    }
    if (indent > 0) append_indent(out, indent, depth);
    out.push_back('}');
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("JSON parse error at offset " +
                          std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return Value(string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid literal");
      default: return number();
    }
  }

  Value number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double out = 0.0;
    const auto r =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (r.ec != std::errc() || r.ptr != text_.data() + pos_ || pos_ == start) {
      fail("invalid number");
    }
    return Value(out);
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          const auto r = std::from_chars(text_.data() + pos_,
                                         text_.data() + pos_ + 4, code, 16);
          if (r.ec != std::errc() || r.ptr != text_.data() + pos_ + 4) {
            fail("invalid \\u escape");
          }
          pos_ += 4;
          // Our writers only emit \u for ASCII control characters; decode
          // the BMP code point as UTF-8 so foreign documents round-trip.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value array() {
    expect('[');
    Array out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(out));
    }
    for (;;) {
      out.push_back(value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Value(std::move(out));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Value object() {
    expect('{');
    Object out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(out));
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      out.insert_or_assign(std::move(key), value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Value(std::move(out));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

bool require_number(const Value& object, const char* key,
                    const std::string& where, std::string* error) {
  const Value* v = object.find(key);
  if (v == nullptr || !v->is_number()) {
    return fail(error, where + ": missing or non-numeric \"" + key + "\"");
  }
  return true;
}

}  // namespace vp::obs::json
