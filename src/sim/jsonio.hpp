#pragma once

#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/jsonemit.hpp"
#include "sim/jsonparse.hpp"
#include "sim/stats.hpp"

/// Symmetric JSON document serde, the text sibling of the
/// sim::StateVisitor walk: a document struct lists its keys once, in one
/// `fields(V& v, T& x)` template, and that list drives both the canonical
/// Writer and the strict Reader, so a schema's emitter and parser cannot
/// drift apart.
///
///   template <typename V>
///   void fields(V& v, axi::MemoryConfig& m) {
///     v("b_latency", m.b_latency);  // string, bool, double or unsigned
///     v.object("bank", m.bank);     // struct with its own fields()
///   }
///
/// v.name(key, e, last, noun) spells an enum by to_string(); 0..last are
/// the known names, and any other fails as "unknown <noun>".
/// v.array(key, vec) holds field-listed structs or strings. v.map(key, m)
/// is a name-keyed std::map of unsigned, field-listed or sim::Histogram
/// values (a histogram is an object of bin -> count). `V::kReading` lets
/// a list do what only one direction needs.
///
/// fields() is found by argument-dependent lookup: declare it in T's
/// namespace, next to the serde code that owns the schema rather than in
/// the model header. The Writer walks the same non-const list without
/// modifying it; a const to_json() enters through const_cast, as the
/// snapshot save visitor walks mutable state.
namespace sim::jsonio {

/// Emits a field list through the canonical jsonemit::Emitter: keys in
/// list order, every field present.
class Writer {
 public:
  static constexpr bool kReading = false;

  explicit Writer(jsonemit::Emitter& e) : e_(e) {}

  void operator()(const char* key, std::string& x) { e_.str(key, x); }
  void operator()(const char* key, bool& x) { e_.boolean(key, x); }
  void operator()(const char* key, double& x) { e_.dbl(key, x); }
  template <std::unsigned_integral U>
  void operator()(const char* key, U& x) {
    e_.u64(key, x);
  }

  template <typename E>
  void name(const char* key, E& x, E /*last*/, const char* /*noun*/) {
    e_.str(key, to_string(x));
  }

  template <typename T>
  void object(const char* key, T& x) {
    e_.open_obj(key);
    fields(*this, x);
    e_.close_obj();
  }

  template <typename T>
  void array(const char* key, std::vector<T>& xs) {
    e_.open_arr(key);
    for (T& x : xs) {
      if constexpr (std::is_same_v<T, std::string>) {
        e_.str_elem(x);
      } else {
        e_.open_obj();
        fields(*this, x);
        e_.close_obj();
      }
    }
    e_.close_arr();
  }

  template <typename T>
  void map(const char* key, std::map<std::string, T>& m) {
    e_.open_obj(key);
    for (auto& [k, x] : m) {
      if constexpr (std::unsigned_integral<T>) {
        (*this)(k.c_str(), x);
      } else if constexpr (std::is_same_v<T, Histogram>) {
        map(k.c_str(), x);
      } else {
        object(k.c_str(), x);
      }
    }
    e_.close_obj();
  }
  void map(const char* key, Histogram& h) {
    e_.open_obj(key);
    for (const auto& [value, count] : h.bins()) {
      e_.u64(std::to_string(value).c_str(), count);
    }
    e_.close_obj();
  }

 private:
  jsonemit::Emitter& e_;
};

/// Reads a field list through the strict jsonparse::ObjReader: a missing
/// key keeps the field's current value; an unknown key, a type mismatch
/// or an unknown enum name throws std::invalid_argument naming the key
/// path. Call finish() after the list (rejects unconsumed keys); nested
/// objects finish themselves.
class Reader : public jsonparse::ObjReader {
  using Json = jsonparse::Json;

 public:
  static constexpr bool kReading = true;

  using jsonparse::ObjReader::ObjReader;

  void operator()(const char* key, std::string& x) { get(key, x); }
  void operator()(const char* key, bool& x) { get(key, x); }
  void operator()(const char* key, double& x) { get(key, x); }
  template <std::unsigned_integral U>
  void operator()(const char* key, U& x) {
    get_u(key, x);
  }

  template <typename E>
  void name(const char* key, E& x, E last, const char* noun) {
    std::string s = to_string(x);
    get(key, s);
    for (unsigned i = 0; i <= static_cast<unsigned>(last); ++i) {
      if (s == to_string(static_cast<E>(i))) {
        x = static_cast<E>(i);
        return;
      }
    }
    fail(ctx(key) + ": unknown " + noun + " \"" + s + "\"");
  }

  template <typename T>
  void object(const char* key, T& x) {
    if (const Json* v = take(key)) read(*v, ctx(key), x);
  }

  template <typename T>
  void array(const char* key, std::vector<T>& xs) {
    const Json* v = take(key);
    if (v == nullptr) return;
    constexpr bool kStrings = std::is_same_v<T, std::string>;
    const std::string path = ctx(key);
    const auto bad = [&] {
      return path + (kStrings ? " must be an array of strings"
                              : " must be an array");
    };
    if (v->kind != Json::Kind::kArray) fail(bad());
    xs.clear();
    for (std::size_t i = 0; i < v->arr.size(); ++i) {
      if constexpr (kStrings) {
        if (v->arr[i].kind != Json::Kind::kString) fail(bad());
        xs.push_back(v->arr[i].str);
      } else {
        read(v->arr[i], path + "[" + std::to_string(i) + "]",
             xs.emplace_back());
      }
    }
  }

  template <typename M>
  void map(const char* key, M& m) {
    if (const Json* v = take(key)) read_map(*v, ctx(key), m);
  }

 private:
  template <typename T>
  void read(const Json& v, const std::string& path, T& x) {
    Reader r(v, path, prefix());
    fields(r, x);
    r.finish();
  }

  template <typename T>
  void read_map(const Json& v, const std::string& path,
                std::map<std::string, T>& m) {
    if (v.kind != Json::Kind::kObject) fail(path + " must be an object");
    for (const auto& [k, x] : v.obj) {
      if constexpr (std::unsigned_integral<T>) {
        read_u(x, m[k], [&] { return path + "." + k; });
      } else if constexpr (std::is_same_v<T, Histogram>) {
        read_map(x, path + "." + k, m[k]);
      } else {
        read(x, path + "." + k, m[k]);
      }
    }
  }
  void read_map(const Json& v, const std::string& path, Histogram& h) {
    if (v.kind != Json::Kind::kObject) fail(path + " must be an object");
    for (const auto& [bin, count] : v.obj) {
      if (bin.empty() ||
          bin.find_first_not_of("0123456789") != std::string::npos) {
        fail(path + ": bin '" + bin + "' is not a non-negative integer");
      }
      std::uint64_t n = 0;
      read_u(count, n, [&] { return path + "." + bin; });
      h.add_count(std::strtoull(bin.c_str(), nullptr, 10), n);
    }
  }
};

}  // namespace sim::jsonio
