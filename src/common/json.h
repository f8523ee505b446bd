// Minimal self-contained JSON value with a parser and writer — the single
// JSON layer shared by the run-manifest emitter, the training-telemetry
// JSONL stream, the bench tools, and tools/report_md. No external library.
//
// Design points:
//   * Objects preserve insertion order, so emitted documents have a stable,
//     diff-friendly field order and dump(parse(s)) == dump-normalised s.
//   * Numbers keep their integer-ness: a literal without '.', 'e', 'E'
//     parses as int64 and prints without a decimal point, so counters
//     round-trip exactly. Doubles print in shortest round-trip form.
//   * Non-finite doubles (JSON cannot represent them) serialize as null.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace muxlink::common {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  using Member = std::pair<std::string, Json>;

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(int v) : type_(Type::kInt), int_(v) {}
  Json(long v) : type_(Type::kInt), int_(v) {}
  Json(long long v) : type_(Type::kInt), int_(v) {}
  Json(unsigned v) : type_(Type::kInt), int_(static_cast<std::int64_t>(v)) {}
  Json(unsigned long v) : type_(Type::kInt), int_(static_cast<std::int64_t>(v)) {}
  Json(unsigned long long v) : type_(Type::kInt), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : type_(Type::kDouble), double_(v) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::kString), string_(s) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kInt || type_ == Type::kDouble; }
  bool is_int() const noexcept { return type_ == Type::kInt; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  bool as_bool() const {
    require(Type::kBool, "bool");
    return bool_;
  }
  std::int64_t as_int() const {
    if (type_ == Type::kDouble) return static_cast<std::int64_t>(double_);
    require(Type::kInt, "integer");
    return int_;
  }
  double as_double() const {
    if (type_ == Type::kInt) return static_cast<double>(int_);
    require(Type::kDouble, "number");
    return double_;
  }
  const std::string& as_string() const {
    require(Type::kString, "string");
    return string_;
  }

  // --- arrays ---------------------------------------------------------------
  std::size_t size() const noexcept {
    return type_ == Type::kArray ? array_.size()
                                 : (type_ == Type::kObject ? members_.size() : 0);
  }
  void push_back(Json v) {
    require(Type::kArray, "array");
    array_.push_back(std::move(v));
  }
  const Json& at(std::size_t i) const {
    require(Type::kArray, "array");
    return array_.at(i);
  }
  const std::vector<Json>& items() const {
    require(Type::kArray, "array");
    return array_;
  }

  // --- objects --------------------------------------------------------------
  // Insert-or-access; inserting converts a null value into an object so
  // `Json j; j["a"]["b"] = 1;` builds nested documents naturally.
  Json& operator[](std::string_view key) {
    if (type_ == Type::kNull) type_ = Type::kObject;
    require(Type::kObject, "object");
    for (Member& m : members_) {
      if (m.first == key) return m.second;
    }
    members_.emplace_back(std::string(key), Json());
    return members_.back().second;
  }
  const Json* find(std::string_view key) const noexcept {
    if (type_ != Type::kObject) return nullptr;
    for (const Member& m : members_) {
      if (m.first == key) return &m.second;
    }
    return nullptr;
  }
  bool contains(std::string_view key) const noexcept { return find(key) != nullptr; }
  const Json& at(std::string_view key) const {
    const Json* v = find(key);
    if (!v) throw JsonError("missing key '" + std::string(key) + "'");
    return *v;
  }
  const std::vector<Member>& members() const {
    require(Type::kObject, "object");
    return members_;
  }

  // Convenience getters with fallbacks (for tolerant manifest readers).
  double number_or(std::string_view key, double fallback) const noexcept {
    const Json* v = find(key);
    return v && v->is_number() ? v->as_double() : fallback;
  }
  std::int64_t int_or(std::string_view key, std::int64_t fallback) const noexcept {
    const Json* v = find(key);
    return v && v->is_number() ? v->as_int() : fallback;
  }
  std::string string_or(std::string_view key, std::string fallback) const noexcept {
    const Json* v = find(key);
    return v && v->is_string() ? v->as_string() : fallback;
  }

  bool operator==(const Json& other) const noexcept;
  bool operator!=(const Json& other) const noexcept { return !(*this == other); }

  // Serialization. dump() is single-line; dump_pretty() indents by 2 spaces.
  std::string dump() const;
  std::string dump_pretty() const;

  // Parses a complete JSON document (throws JsonError on malformed input,
  // trailing garbage, or arrays/objects nested more than 512 deep).
  static Json parse(std::string_view text);

 private:
  void require(Type t, const char* what) const {
    if (type_ != t) throw JsonError(std::string("JSON value is not a ") + what);
  }
  void write(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<Member> members_;
};

// Appends `text` JSON-escaped (no surrounding quotes) to `out`.
void json_escape(std::string_view text, std::string& out);

// Append-only JSON-Lines writer: one dump()ed object per line, flushed per
// write so a crashed run keeps every completed record. Thread-safe (the
// ensemble trainer streams epochs from worker threads).
class JsonlWriter {
 public:
  explicit JsonlWriter(const std::string& path);
  ~JsonlWriter();
  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  void write(const Json& record);
  const std::string& path() const noexcept { return path_; }

 private:
  struct Impl;
  std::string path_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace muxlink::common
