#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>

namespace muxlink::common {

bool Json::operator==(const Json& other) const noexcept {
  if (type_ != other.type_) {
    // Allow 1 == 1.0 so parsed and programmatic documents compare sanely.
    if (is_number() && other.is_number()) return as_double() == other.as_double();
    return false;
  }
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kInt: return int_ == other.int_;
    case Type::kDouble: return double_ == other.double_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return members_ == other.members_;
  }
  return false;
}

void json_escape(std::string_view text, std::string& out) {
  // Bytes that need no escape are copied in runs; `run` starts the current one.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(text, run, text.size() - run);
}

namespace {

void write_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
  // Keep a visible floating-point marker so the value re-parses as a double.
  std::string_view written(buf, static_cast<std::size_t>(res.ptr - buf));
  if (written.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof buf, int_);
      out.append(buf, res.ptr);
      break;
    }
    case Type::kDouble: write_double(out, double_); break;
    case Type::kString:
      out += '"';
      json_escape(string_, out);
      out += '"';
      break;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        out += '"';
        json_escape(members_[i].first, out);
        out += indent > 0 ? "\": " : "\":";
        members_[i].second.write(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::dump_pretty() const {
  std::string out;
  write(out, 2, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser: straightforward recursive descent over a string_view.
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
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

  Json parse_value() {
    switch (const char c = peek()) {
      case '{':
      case '[': {
        // Bounded, so a frame of nested brackets cannot exhaust the stack.
        if (++depth_ > kMaxDepth) fail("nesting deeper than " + std::to_string(kMaxDepth));
        Json v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      obj[key] = parse_value();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run up to the next quote or backslash in one append.
      std::size_t stop = pos_;
      while (stop < text_.size() && text_[stop] != '"' && text_[stop] != '\\') ++stop;
      out.append(text_, pos_, stop - pos_);
      pos_ = stop;
      if (pos_ == text_.size()) fail("unterminated string");
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // Encode the code point as UTF-8 (surrogate pairs are passed
          // through individually; the manifests only carry ASCII anyway).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("invalid number");
    if (!is_double) {
      std::int64_t v = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (res.ec == std::errc() && res.ptr == tok.data() + tok.size()) return Json(v);
      // Out-of-range integer literal: fall through to double.
    }
    double d = 0.0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size()) fail("invalid number");
    return Json(d);
  }

  static constexpr int kMaxDepth = 512;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

// ---------------------------------------------------------------------------
// JsonlWriter
// ---------------------------------------------------------------------------

struct JsonlWriter::Impl {
  std::mutex mu;
  std::ofstream os;
};

JsonlWriter::JsonlWriter(const std::string& path) : path_(path), impl_(new Impl) {
  impl_->os.open(path, std::ios::app);
  if (!impl_->os) throw std::runtime_error("JsonlWriter: cannot open '" + path + "'");
}

JsonlWriter::~JsonlWriter() = default;

void JsonlWriter::write(const Json& record) {
  const std::string line = record.dump();
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->os << line << '\n';
  impl_->os.flush();
}

}  // namespace muxlink::common
