#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace clove::telemetry {

/// A minimal JSON document value: enough to emit the machine-readable run
/// artifacts (bench results, metric snapshots, flight exports) and to parse
/// them back for round-trip tests and tooling. Objects preserve insertion
/// order so emitted artifacts are deterministic and diff-friendly.
///
/// Deliberately small: no exceptions (parse reports failure via an error
/// string), no unicode escapes beyond pass-through, no external deps.
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double n) : kind_(Kind::kNumber), num_(n) {}
  Json(int n) : Json(static_cast<double>(n)) {}
  Json(std::int64_t n) : Json(static_cast<double>(n)) {}
  Json(std::uint64_t n) : Json(static_cast<double>(n)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const { return is_bool() && bool_; }
  [[nodiscard]] double as_number() const { return is_number() ? num_ : 0.0; }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] const Array& items() const { return arr_; }
  [[nodiscard]] const Object& members() const { return obj_; }
  [[nodiscard]] std::size_t size() const {
    return is_array() ? arr_.size() : (is_object() ? obj_.size() : 0);
  }

  /// Object lookup; returns a shared null value when absent (chainable).
  [[nodiscard]] const Json& operator[](const std::string& key) const;
  /// Array index; returns a shared null value when out of range.
  [[nodiscard]] const Json& operator[](std::size_t i) const;
  [[nodiscard]] bool contains(const std::string& key) const;

  /// Insert-or-replace an object member (converts a null value to an object).
  Json& set(const std::string& key, Json value);
  /// Append to an array (converts a null value to an array).
  Json& push_back(Json value);

  /// Serialize. indent < 0: compact one-line; otherwise pretty-print with
  /// `indent` spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a document. On failure returns a null Json and, when `error` is
  /// non-null, a human-readable description with the byte offset.
  static Json parse(const std::string& text, std::string* error = nullptr);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_{Kind::kNull};
  bool bool_{false};
  double num_{0.0};
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace clove::telemetry
