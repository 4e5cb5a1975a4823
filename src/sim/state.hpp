#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/bytes.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/wire.hpp"

/// Symmetric state-serde: the reflection layer behind simulation-state
/// snapshots (src/snapshot/). One visitor interface serves both
/// directions — each module implements a single visit_state() that lists
/// its registers once, and the visitor's mode decides whether the walk
/// serializes or restores them. The symmetry is the correctness
/// argument: a field cannot be saved without being loaded in the same
/// order (or vice versa), so a round-trip is exact by construction and a
/// save/load asymmetry is impossible to write.
///
/// Encoding (fixed, platform-independent): every primitive is
/// little-endian fixed-width (sim/bytes.hpp), bool is one strict 0/1
/// byte, and doubles travel as their IEEE-754 bit pattern — bit-exact
/// restore, which the forked-trial equivalence gates depend on. Loaders
/// are strict: underruns, bad bools and container counts exceeding the
/// remaining payload all abort through fail() with a named error. Every
/// such message is built out of line, so a primitive's load is one
/// inlined compare.
///
/// A loader writes into the containers it finds and keeps their storage
/// where the shape already matches: a restore into a netlist that holds
/// the image's state allocates nothing. Reused elements keep any field
/// their visit_fields() skips, so a container's element type lists every
/// field it has.
namespace sim {

class StateVisitor {
 public:
  /// A saver: the walk appends to the visitor's own buffer (take_bytes()).
  StateVisitor() : saving_(true), in_(nullptr, 0, nullptr) {}

  /// A loader over [data, data + size): every primitive goes through the
  /// bounds-checked cursor, and an underrun fails "payload underrun: need
  /// <n> bytes, <m> left" before any byte past the end is read.
  StateVisitor(const unsigned char* data, std::size_t size)
      : saving_(false), in_(data, size, [this](const std::string& msg) {
          fail("payload underrun: " + msg);
        }) {}

  virtual ~StateVisitor() = default;

  StateVisitor(const StateVisitor&) = delete;
  StateVisitor& operator=(const StateVisitor&) = delete;

  bool saving() const { return saving_; }

  /// Aborts the walk with a named error (loaders throw; savers should
  /// never reach a fail() call for in-contract state).
  [[noreturn]] virtual void fail(const std::string& msg) = 0;

  void u64(std::uint64_t& x) { le(x); }
  void u32(std::uint32_t& x) { le(x); }
  void u16(std::uint16_t& x) { le(x); }
  void u8(std::uint8_t& x) { le(x); }

  void boolean(bool& x) {
    std::uint8_t v = x ? 1 : 0;
    u8(v);
    if (!saving_) {
      if (v > 1) [[unlikely]] bad_bool();
      x = v != 0;
    }
  }

  /// IEEE-754 bit pattern (bit-exact round-trip, NaN payloads included).
  void f64(double& x) {
    std::uint64_t bits = 0;
    if (saving_) {
      static_assert(sizeof(double) == sizeof(std::uint64_t));
      __builtin_memcpy(&bits, &x, sizeof(bits));
    }
    u64(bits);
    if (!saving_) __builtin_memcpy(&x, &bits, sizeof(bits));
  }

  /// Container element count: on load, bounded by the remaining payload
  /// (every element costs at least one byte), so a corrupted count can
  /// never drive an allocation the payload couldn't back.
  void count(std::uint64_t& n) {
    u64(n);
    if (!saving_ && n > remaining()) [[unlikely]] bad_count(n);
  }

  void str(std::string& s) {
    std::uint64_t n = s.size();
    count(n);
    if (!saving_) s.assign(static_cast<std::size_t>(n), '\0');
    if (n != 0) {
      transfer(reinterpret_cast<unsigned char*>(s.data()),
               static_cast<std::size_t>(n));
    }
  }

  /// A structural name (module, metric slot) in the str() encoding: a
  /// saver writes `s` and returns it, a loader returns the name the
  /// payload holds, viewed in place, for the caller to check against
  /// `s` without copying it.
  std::string_view label(std::string_view s) {
    std::uint64_t n = s.size();
    count(n);
    if (saving_) {
      out_.insert(out_.end(), s.begin(), s.end());
      return s;
    }
    const auto* at = reinterpret_cast<const char*>(take(n));
    return {at, static_cast<std::size_t>(n)};
  }

  /// Bulk byte-array transfer (memory pages, blob payloads). The caller
  /// owns layout determinism; n must be the same on save and load.
  void raw(void* p, std::size_t n) {
    transfer(static_cast<unsigned char*>(p), n);
  }

  /// Loader: payload bytes consumed so far.
  std::size_t consumed() const { return in_.pos(); }

  /// Bytes left to consume (loaders); savers return a huge value.
  std::uint64_t remaining() const {
    return saving_ ? ~std::uint64_t{0} : in_.remaining();
  }

  /// Loader: consumes `n` bytes with one bounds check and returns where
  /// they start (a block of flat records, see load_flat()).
  const unsigned char* take(std::size_t n) { return in_.take(n); }

  /// Loader: fails at `at`, inside a block take() returned, so the
  /// error names the offset of the field that failed there.
  [[noreturn]] void fail_at(const unsigned char* at, const std::string& msg) {
    in_.rewind(at);
    fail(msg);
    std::abort();  // fail() throws; GCC does not see a virtual noreturn
  }

  /// Saver: moves the byte stream written so far out.
  std::vector<unsigned char> take_bytes() { return std::move(out_); }

 private:
  [[noreturn, gnu::cold, gnu::noinline]] void bad_bool() {
    fail("bool byte is not 0 or 1");
    std::abort();
  }
  [[noreturn, gnu::cold, gnu::noinline]] void bad_count(std::uint64_t n) {
    fail("container count " + std::to_string(n) +
         " exceeds the remaining payload (" + std::to_string(remaining()) +
         " bytes)");
    std::abort();
  }

  /// Transfers n raw bytes (append on save, consume on load).
  void transfer(unsigned char* p, std::size_t n) {
    if (saving_) {
      out_.insert(out_.end(), p, p + n);
    } else {
      std::memcpy(p, in_.take(n), n);
    }
  }

  /// One fixed-width primitive in the sim/bytes.hpp encoding, packed and
  /// unpacked inline: restore runs on every forked trial.
  template <typename UInt>
  void le(UInt& x) {
    if (saving_) {
      bytes::put_le(out_, x);
    } else {
      x = bytes::load_le<UInt>(in_.take(sizeof(UInt)));
    }
  }

  bool saving_;
  std::vector<unsigned char> out_;  ///< saver's stream
  bytes::Reader in_;                ///< loader's cursor
};

// ---------------------------------------------------------------------
// Flat records: one bounds check per record log.
// ---------------------------------------------------------------------

/// A record made only of unsigned integers, bools, enums and fixed
/// arrays (and structs of those), opted in with `static constexpr bool
/// kFlatState = true;` beside its visit_fields(); unsigned integers are
/// flat too. Every record takes the same number of payload bytes, so a
/// std::vector of them loads with one bounds check for the whole log
/// (load_flat()). The flat visitors have no overload for anything else:
/// opting in a record with a string, a container or a double does not
/// compile.
template <typename T>
concept FlatRecord =
    (std::is_unsigned_v<T> && !std::is_same_v<T, bool>) ||
    requires { requires T::kFlatState; };

namespace flat {

/// Counts the payload bytes of one record. It reports saving(), so the
/// load-side checks in visit_fields() stay quiet.
struct Width {
  std::size_t bytes = 0;

  bool saving() const { return true; }
  [[noreturn]] void fail(const std::string&) { std::abort(); }
  template <typename UInt>
  void le(UInt&) {
    bytes += sizeof(UInt);
  }
  void boolean(bool&) { bytes += 1; }
};

/// Decodes records from a block the caller bounds-checked once. The
/// bool, AXI size and countdown checks still run, and a failure names
/// the offset of the field, as the per-primitive walk does.
class Load {
 public:
  Load(StateVisitor& v, const unsigned char* at) : v_(v), p_(at) {}

  bool saving() const { return false; }
  [[noreturn]] void fail(const std::string& msg) { v_.fail_at(p_, msg); }
  template <typename UInt>
  void le(UInt& x) {
    x = bytes::load_le<UInt>(p_);
    p_ += sizeof(UInt);
  }
  void boolean(bool& x) {
    const std::uint8_t b = *p_++;
    if (b > 1) [[unlikely]] bad_bool();
    x = b != 0;
  }

 private:
  [[noreturn, gnu::cold, gnu::noinline]] void bad_bool() {
    fail("bool byte is not 0 or 1");
  }

  StateVisitor& v_;
  const unsigned char* p_;
};

template <typename V>
concept Visitor = std::is_same_v<V, Width> || std::is_same_v<V, Load>;

// The same encoding as the StateVisitor overloads below.
template <Visitor V, typename UInt>
  requires(std::is_unsigned_v<UInt> && !std::is_same_v<UInt, bool>)
void visit(V& v, UInt& x) {
  v.le(x);
}
template <Visitor V>
void visit(V& v, bool& x) {
  v.boolean(x);
}
template <Visitor V, typename E>
  requires std::is_enum_v<E>
void visit(V& v, E& e) {
  auto u = static_cast<std::uint32_t>(e);
  v.le(u);
  e = static_cast<E>(u);
}
template <Visitor V, typename T, std::size_t N>
void visit(V& v, std::array<T, N>& a) {
  for (auto& e : a) visit(v, e);
}
template <Visitor V, typename T>
  requires requires(T& t, V& v) { t.visit_fields(v); }
void visit(V& v, T& x) {
  x.visit_fields(v);
}

/// Payload bytes one T takes in the StateVisitor encoding.
template <FlatRecord T>
std::size_t width() {
  Width w;
  T x{};
  visit(w, x);
  return w.bytes;
}

}  // namespace flat

/// Loads a log of `n` flat records (the count already read and bounded)
/// into `c`. One check that the payload holds n records, made by
/// division so it cannot wrap, replaces a bounds check per primitive,
/// and comes before `c` changes size. A payload too short for n records
/// is decoded one record at a time into a scratch record instead, so the
/// walk fails at the same field, with the same message, as a
/// per-primitive walk. Records `c` already holds are overwritten in
/// place before it is resized.
template <FlatRecord T>
void load_flat(StateVisitor& v, std::vector<T>& c, std::uint64_t n) {
  const std::size_t w = flat::width<T>();
  if (n > v.remaining() / w) {
    T scratch{};
    for (std::uint64_t i = 0; i < n; ++i) visit(v, scratch);
  }
  flat::Load in(v, v.take(static_cast<std::size_t>(n) * w));
  const std::size_t kept = std::min(c.size(), static_cast<std::size_t>(n));
  T* const old = c.data();
  for (std::size_t i = 0; i < kept; ++i) visit(in, old[i]);
  c.resize(static_cast<std::size_t>(n));
  T* const grown = c.data();
  for (std::size_t i = kept; i < c.size(); ++i) visit(in, grown[i]);
}

// ---------------------------------------------------------------------
// visit() overload set. Every call site spells `visit(v, field)`; the
// StateVisitor argument makes sim an associated namespace, so these (and
// any same-shape overload next to a user type) are always found.
// ---------------------------------------------------------------------

inline void visit(StateVisitor& v, bool& x) { v.boolean(x); }
inline void visit(StateVisitor& v, char& x) {
  auto b = static_cast<std::uint8_t>(x);
  v.u8(b);
  if (!v.saving()) x = static_cast<char>(b);
}
inline void visit(StateVisitor& v, std::uint8_t& x) { v.u8(x); }
inline void visit(StateVisitor& v, std::uint16_t& x) { v.u16(x); }
inline void visit(StateVisitor& v, std::uint32_t& x) { v.u32(x); }
inline void visit(StateVisitor& v, std::uint64_t& x) { v.u64(x); }
inline void visit(StateVisitor& v, double& x) { v.f64(x); }
inline void visit(StateVisitor& v, std::string& s) { v.str(s); }

inline void visit(StateVisitor& v, int& x) {
  auto u = static_cast<std::uint32_t>(x);
  v.u32(u);
  if (!v.saving()) x = static_cast<int>(u);
}

/// Enums travel as their numeric value in 32 bits (covers every enum in
/// the repo; module state enums are int-backed).
template <typename E>
  requires std::is_enum_v<E>
void visit(StateVisitor& v, E& e) {
  auto u = static_cast<std::uint32_t>(e);
  v.u32(u);
  if (!v.saving()) e = static_cast<E>(u);
}

/// Any type exposing `void visit_fields(StateVisitor&)` — the one-line
/// opt-in for plain state structs (flit payloads, queue entries, ...).
template <typename T>
  requires requires(T& t, StateVisitor& v) { t.visit_fields(v); }
void visit(StateVisitor& v, T& x) {
  x.visit_fields(v);
}

/// RNG stream: the raw xoshiro words, so a restored stream continues the
/// exact sequence the captured one would have produced.
inline void visit(StateVisitor& v, Rng& r) {
  auto s = r.state();
  for (auto& w : s) v.u64(w);
  if (!v.saving()) r.set_state(s);
}

inline void visit(StateVisitor& v, RunningStats& s) {
  std::uint64_t n = s.count();
  double mean = s.mean();
  double m2 = s.m2();
  double mn = s.min();
  double mx = s.max();
  v.u64(n);
  v.f64(mean);
  v.f64(m2);
  v.f64(mn);
  v.f64(mx);
  if (!v.saving()) s = RunningStats::from_parts(n, mean, m2, mn, mx);
}

inline void visit(StateVisitor& v, Histogram& h) {
  std::uint64_t n = h.bins().size();
  v.count(n);
  if (v.saving()) {
    for (const auto& [value, cnt] : h.bins()) {
      std::uint64_t val = value;
      std::uint64_t c = cnt;
      v.u64(val);
      v.u64(c);
    }
  } else {
    h.assign_bins(n, [&](std::uint64_t& value, std::uint64_t& cnt) {
      v.u64(value);
      v.u64(cnt);
    });
  }
}

template <typename T, std::size_t N>
void visit(StateVisitor& v, std::array<T, N>& a) {
  for (auto& e : a) visit(v, e);
}

template <typename T>
void visit(StateVisitor& v, std::vector<T>& c) {
  std::uint64_t n = c.size();
  v.count(n);
  if (v.saving()) {
    for (auto& e : c) visit(v, e);
  } else if constexpr (FlatRecord<T>) {
    load_flat(v, c, n);
  } else {
    c.resize(static_cast<std::size_t>(n));
    for (auto& e : c) visit(v, e);
  }
}

inline void visit(StateVisitor& v, std::vector<bool>& c) {
  std::uint64_t n = c.size();
  v.count(n);
  if (!v.saving()) c.assign(static_cast<std::size_t>(n), false);
  for (std::size_t i = 0; i < c.size(); ++i) {
    bool b = c[i];
    v.boolean(b);
    if (!v.saving()) c[i] = b;
  }
}

template <typename T>
void visit(StateVisitor& v, std::deque<T>& c) {
  std::uint64_t n = c.size();
  v.count(n);
  if (!v.saving()) c.resize(static_cast<std::size_t>(n));
  for (auto& e : c) visit(v, e);
}

template <typename K, typename V>
void visit(StateVisitor& v, std::map<K, V>& m) {
  std::uint64_t n = m.size();
  v.count(n);
  if (v.saving()) {
    for (auto& [key, value] : m) {
      K k = key;  // keys are immutable in place; visit a copy
      visit(v, k);
      visit(v, value);
    }
  } else {
    // A saver writes the keys in order, so one merge walk keeps the node
    // (and the value's storage) of every key that stays. A key out of
    // order or repeated in a corrupted payload loads as it always did:
    // the first value read for a key wins.
    auto it = m.begin();  // entries not yet matched, all past `last`
    K last{};
    for (std::uint64_t i = 0; i < n; ++i) {
      K k{};
      visit(v, k);
      if (i > 0 && !(last < k)) {
        auto [at, fresh] = m.try_emplace(k);
        V skipped{};
        visit(v, fresh ? at->second : skipped);
        continue;
      }
      while (it != m.end() && it->first < k) it = m.erase(it);
      if (it == m.end() || k < it->first) it = m.try_emplace(it, k);
      visit(v, it->second);
      ++it;
      last = k;
    }
    m.erase(it, m.end());
  }
}

/// Snapshot-layer access to a Wire's private value (befriended by
/// Wire). Loads write the value cell directly, with no change report:
/// the restorer re-establishes the settled-state bookkeeping explicitly,
/// so a restore must not look like activity. The wire's
/// scheduling slot is not state: the restoring simulator's add() tagged
/// it when the netlist was built.
struct StateAccess {
  template <typename T>
  static T& value(Wire<T>& w) {
    return w.value_;
  }
};

template <typename T>
void visit(StateVisitor& v, Wire<T>& w) {
  visit(v, StateAccess::value(w));
}

}  // namespace sim
