#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

/// Dependency-free strict JSON reading, shared by every document parser
/// in the repo (SocDesc topologies, trace tooling, tests validating
/// emitted report/export documents). The design goal is loud failure:
/// unknown keys, duplicate keys, type mismatches and malformed input
/// all throw std::invalid_argument naming the offending key/position,
/// prefixed with the caller's context so a SocDesc error still reads
/// "SocDesc::from_json: ...".
namespace sim::jsonparse {

/// One parsed JSON value (a plain tree; no behavior).
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::uint64_t unum = 0;
  bool is_unsigned = false;  ///< lexically a non-negative integer
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;
};

/// Parses a complete document (trailing characters and nesting deeper
/// than 256 levels rejected). Errors throw std::invalid_argument
/// prefixed "<error_prefix>: ".
Json parse(const std::string& text, const std::string& error_prefix = "json");

/// Strict object reader: every key must be consumed exactly once; any
/// leftover key is an error naming it. Missing keys keep field defaults.
class ObjReader {
 public:
  ObjReader(const Json& v, std::string where,
            std::string error_prefix = "json");

  /// Removes and returns the value of `key`, or nullptr if absent.
  const Json* take(const char* key);

  void get(const char* key, std::string& out);
  void get(const char* key, bool& out);
  void get(const char* key, double& out);

  template <typename UInt>
  void get_u(const char* key, UInt& out) {
    if (const Json* v = take(key)) read_u(*v, out, [&] { return ctx(key); });
  }

  /// get_u's check on a value already in hand (a map entry). `path()`
  /// names the value; it is called only to build an error message.
  template <typename UInt, typename Path>
  void read_u(const Json& v, UInt& out, const Path& path) const {
    if (v.kind != Json::Kind::kNumber || !v.is_unsigned) {
      fail(path() + " must be a non-negative integer");
    }
    if (v.unum > std::numeric_limits<UInt>::max()) {
      fail(path() + ": " + std::to_string(v.unum) +
           " does not fit the field (max " +
           std::to_string(std::numeric_limits<UInt>::max()) + ")");
    }
    out = static_cast<UInt>(v.unum);
  }

  /// Call last: rejects unconsumed (unknown) keys.
  void finish();

  std::string ctx(const char* key) const { return where_ + "." + key; }
  const std::string& where() const { return where_; }
  const std::string& prefix() const { return prefix_; }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(prefix_ + ": " + what);
  }

 private:
  std::string prefix_;
  std::string where_;
  std::vector<std::pair<std::string, const Json*>> fields_;
};

}  // namespace sim::jsonparse
