#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

namespace axi {

// State-serde note: every payload/bundle struct below carries a
// templated visit_fields() (see sim/state.hpp) so snapshots can walk
// flit queues without this header depending on the serde layer; the
// unqualified visit() calls resolve by ADL on the visitor argument.

using Id = std::uint32_t;
using Addr = std::uint64_t;
/// One data beat; the models use buses up to 64 bit.
using Data = std::uint64_t;

/// AXI4 burst type (AWBURST / ARBURST encoding).
enum class Burst : std::uint8_t { kFixed = 0, kIncr = 1, kWrap = 2 };

/// Largest AxSIZE (3 bits): 128-byte beats.
inline constexpr std::uint8_t kMaxSize = 7;

/// The load checks' messages are built out of line (here and in
/// fail_beats_left()), so an inlined check costs one compare.
template <typename V>
[[noreturn, gnu::cold, gnu::noinline]] void fail_size(V& v,
                                                      std::uint8_t size) {
  v.fail("AXI size " + std::to_string(size) + " exceeds " +
         std::to_string(kMaxSize));
  std::abort();  // fail() throws; GCC does not see a virtual noreturn
}

/// Load-side check of a restored AxSIZE: beat arithmetic shifts by it,
/// so a snapshot carrying a larger value fails the restore instead.
template <typename V>
void check_size(V& v, std::uint8_t size) {
  if (!v.saving() && size > kMaxSize) [[unlikely]] fail_size(v, size);
}

/// AXI4 response code (BRESP / RRESP encoding).
enum class Resp : std::uint8_t {
  kOkay = 0,
  kExOkay = 1,
  kSlvErr = 2,
  kDecErr = 3,
};

inline const char* to_string(Resp r) {
  switch (r) {
    case Resp::kOkay: return "OKAY";
    case Resp::kExOkay: return "EXOKAY";
    case Resp::kSlvErr: return "SLVERR";
    case Resp::kDecErr: return "DECERR";
  }
  return "?";
}

inline const char* to_string(Burst b) {
  switch (b) {
    case Burst::kFixed: return "FIXED";
    case Burst::kIncr: return "INCR";
    case Burst::kWrap: return "WRAP";
  }
  return "?";
}

// Layout contract: every flit and bundle below has no implicit padding
// (the static_asserts after each pin its size and
// std::has_unique_object_representations_v), and the spare bytes are
// explicit pad members that stay zero. Two equal values are therefore
// equal byte for byte, so operator== is one memcmp over the object,
// which GCC inlines: that is the check every sim::Wire::write() makes.
// Members are laid out widest first; the serialized order is
// visit_fields()'s, which lists the fields in their AXI order and never
// the pads.

/// Byte-wise equality of two padding-free objects.
template <typename T>
bool same_bytes(const T& a, const T& b) {
  static_assert(std::has_unique_object_representations_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Address channel payload. AXI4's write (AW) and read (AR) address
/// channels carry the same fields, so one struct serves both; `AwFlit`
/// and `ArFlit` name it per channel.
struct AxFlit {
  Addr addr = 0;
  Id id = 0;
  std::uint8_t len = 0;   ///< beats - 1, as in AxLEN
  std::uint8_t size = 3;  ///< log2(bytes per beat), as in AxSIZE
  Burst burst = Burst::kIncr;
  std::uint8_t pad = 0;

  constexpr AxFlit() = default;
  /// The AXI field order: {id, addr, len, size, burst}.
  constexpr AxFlit(Id id, Addr addr, std::uint8_t len = 0,
                   std::uint8_t size = 3, Burst burst = Burst::kIncr)
      : addr(addr), id(id), len(len), size(size), burst(burst) {}

  bool operator==(const AxFlit& o) const { return same_bytes(*this, o); }
  template <typename V>
  void visit_fields(V& v) {
    visit(v, id);
    visit(v, addr);
    visit(v, len);
    visit(v, size);
    check_size(v, size);
    visit(v, burst);
  }
};
static_assert(sizeof(AxFlit) == 16);
static_assert(std::has_unique_object_representations_v<AxFlit>);
using AwFlit = AxFlit;  ///< AW channel payload (write address)
using ArFlit = AxFlit;  ///< AR channel payload (read address)

/// W channel payload (write data).
struct WFlit {
  Data data = 0;
  std::uint8_t strb = 0xFF;
  bool last = false;
  std::uint8_t pad[6] = {};
  bool operator==(const WFlit& o) const { return same_bytes(*this, o); }
  template <typename V>
  void visit_fields(V& v) {
    visit(v, data);
    visit(v, strb);
    visit(v, last);
  }
};
static_assert(sizeof(WFlit) == 16);
static_assert(std::has_unique_object_representations_v<WFlit>);

/// B channel payload (write response).
struct BFlit {
  Id id = 0;
  Resp resp = Resp::kOkay;
  std::uint8_t pad[3] = {};
  bool operator==(const BFlit& o) const { return same_bytes(*this, o); }
  template <typename V>
  void visit_fields(V& v) {
    visit(v, id);
    visit(v, resp);
  }
};
static_assert(sizeof(BFlit) == 8);
static_assert(std::has_unique_object_representations_v<BFlit>);

/// R channel payload (read data).
struct RFlit {
  Data data = 0;
  Id id = 0;
  Resp resp = Resp::kOkay;
  bool last = false;
  std::uint8_t pad[2] = {};

  constexpr RFlit() = default;
  /// The AXI field order: {id, data, resp, last}.
  constexpr RFlit(Id id, Data data, Resp resp = Resp::kOkay,
                  bool last = false)
      : data(data), id(id), resp(resp), last(last) {}

  bool operator==(const RFlit& o) const { return same_bytes(*this, o); }
  template <typename V>
  void visit_fields(V& v) {
    visit(v, id);
    visit(v, data);
    visit(v, resp);
    visit(v, last);
  }
};
static_assert(sizeof(RFlit) == 16);
static_assert(std::has_unique_object_representations_v<RFlit>);

/// Manager -> subordinate signal bundle (requests + response readies),
/// mirroring the pulp-platform axi_req_t convention.
struct AxiReq {
  AwFlit aw{};
  WFlit w{};
  ArFlit ar{};
  bool aw_valid = false;
  bool w_valid = false;
  bool b_ready = false;
  bool ar_valid = false;
  bool r_ready = false;
  std::uint8_t pad[3] = {};
  bool operator==(const AxiReq& o) const { return same_bytes(*this, o); }
  template <typename V>
  void visit_fields(V& v) {
    visit(v, aw);
    visit(v, aw_valid);
    visit(v, w);
    visit(v, w_valid);
    visit(v, b_ready);
    visit(v, ar);
    visit(v, ar_valid);
    visit(v, r_ready);
  }
};
static_assert(sizeof(AxiReq) == 56);
static_assert(std::has_unique_object_representations_v<AxiReq>);

/// Subordinate -> manager signal bundle (readies + responses),
/// mirroring the pulp-platform axi_rsp_t convention.
struct AxiRsp {
  RFlit r{};
  BFlit b{};
  bool aw_ready = false;
  bool w_ready = false;
  bool b_valid = false;
  bool ar_ready = false;
  bool r_valid = false;
  std::uint8_t pad[3] = {};
  bool operator==(const AxiRsp& o) const { return same_bytes(*this, o); }
  template <typename V>
  void visit_fields(V& v) {
    visit(v, aw_ready);
    visit(v, w_ready);
    visit(v, b);
    visit(v, b_valid);
    visit(v, ar_ready);
    visit(v, r);
    visit(v, r_valid);
  }
};
static_assert(sizeof(AxiRsp) == 32);
static_assert(std::has_unique_object_representations_v<AxiRsp>);

/// Number of beats in a burst described by an AXI len field.
inline unsigned beats(std::uint8_t len) { return unsigned{len} + 1u; }

template <typename V>
[[noreturn, gnu::cold, gnu::noinline]] void fail_beats_left(
    V& v, unsigned beats_left, const char* what) {
  v.fail(std::string(what) + " countdown " + std::to_string(beats_left) +
         " out of range [1, 256]");
  std::abort();
}

/// Loaders: a queued burst countdown (beats still to send, `what`) is
/// always in [1, 256] while its entry lives — it starts at beats(len)
/// and the entry retires when it reaches 0. A restored 0 would send a
/// non-last beat and then wrap to 2^32 - 1 beats.
template <typename V>
void check_beats_left(V& v, unsigned beats_left, const char* what) {
  if (!v.saving() && (beats_left < 1 || beats_left > beats(0xFF)))
      [[unlikely]] {
    fail_beats_left(v, beats_left, what);
  }
}

/// Bytes per beat for an AXI size field.
inline std::uint64_t beat_bytes(std::uint8_t size) {
  return std::uint64_t{1} << size;
}

}  // namespace axi
