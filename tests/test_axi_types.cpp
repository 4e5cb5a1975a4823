// The AXI bundle layout contract (axi/types.hpp): no implicit padding,
// zeroed pad members, operator== as one byte compare. Every field of
// every flit and bundle takes part in ==, brace-init keeps the AXI
// argument order, and a wire write reports exactly the value changes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "axi/types.hpp"
#include "sim/context.hpp"
#include "sim/wire.hpp"

namespace {

using axi::AxFlit;
using axi::AxiReq;
using axi::AxiRsp;
using axi::BFlit;
using axi::Burst;
using axi::Resp;
using axi::RFlit;
using axi::WFlit;

// Counts the leaf fields visit_fields() walks (nested flits recursed).
struct LeafCount {
  std::size_t n = 0;
  bool saving() const { return true; }
  [[noreturn]] void fail(const std::string&) { std::abort(); }
};
template <typename T>
void visit(LeafCount& c, T& x) {
  if constexpr (requires { x.visit_fields(c); }) {
    x.visit_fields(c);
  } else {
    ++c.n;
  }
}
template <typename T>
std::size_t leaf_fields() {
  LeafCount c;
  T x{};
  visit(c, x);
  return c.n;
}

// A different value of one field, and back again when applied twice.
template <typename U>
void flip(U& x) {
  if constexpr (std::is_same_v<U, bool>) {
    x = !x;
  } else if constexpr (std::is_enum_v<U>) {
    x = static_cast<U>(static_cast<std::uint8_t>(x) ^ 1u);
  } else {
    x ^= 1u;
  }
}

template <typename T>
using Mutators = std::vector<std::function<void(T&)>>;

// One mutator per leaf field, in visit_fields() order.
Mutators<AxFlit> ax_mutators() {
  return {[](AxFlit& f) { flip(f.id); }, [](AxFlit& f) { flip(f.addr); },
          [](AxFlit& f) { flip(f.len); }, [](AxFlit& f) { flip(f.size); },
          [](AxFlit& f) { flip(f.burst); }};
}
Mutators<WFlit> w_mutators() {
  return {[](WFlit& f) { flip(f.data); }, [](WFlit& f) { flip(f.strb); },
          [](WFlit& f) { flip(f.last); }};
}
Mutators<BFlit> b_mutators() {
  return {[](BFlit& f) { flip(f.id); }, [](BFlit& f) { flip(f.resp); }};
}
Mutators<RFlit> r_mutators() {
  return {[](RFlit& f) { flip(f.id); }, [](RFlit& f) { flip(f.data); },
          [](RFlit& f) { flip(f.resp); }, [](RFlit& f) { flip(f.last); }};
}

// A bundle's mutators: its flits' mutators applied to the member, and
// one per handshake bool.
template <typename T, typename F>
void add_member(Mutators<T>& out, const Mutators<F>& flit, F T::*member) {
  for (const auto& m : flit) {
    out.push_back([m, member](T& x) { m(x.*member); });
  }
}

Mutators<AxiReq> req_mutators() {
  Mutators<AxiReq> m;
  add_member(m, ax_mutators(), &AxiReq::aw);
  m.push_back([](AxiReq& q) { flip(q.aw_valid); });
  add_member(m, w_mutators(), &AxiReq::w);
  m.push_back([](AxiReq& q) { flip(q.w_valid); });
  m.push_back([](AxiReq& q) { flip(q.b_ready); });
  add_member(m, ax_mutators(), &AxiReq::ar);
  m.push_back([](AxiReq& q) { flip(q.ar_valid); });
  m.push_back([](AxiReq& q) { flip(q.r_ready); });
  return m;
}

Mutators<AxiRsp> rsp_mutators() {
  Mutators<AxiRsp> m;
  m.push_back([](AxiRsp& s) { flip(s.aw_ready); });
  m.push_back([](AxiRsp& s) { flip(s.w_ready); });
  add_member(m, b_mutators(), &AxiRsp::b);
  m.push_back([](AxiRsp& s) { flip(s.b_valid); });
  m.push_back([](AxiRsp& s) { flip(s.ar_ready); });
  add_member(m, r_mutators(), &AxiRsp::r);
  m.push_back([](AxiRsp& s) { flip(s.r_valid); });
  return m;
}

// Every field takes part in ==, from the default value and from a value
// with every field changed; defaults and copies compare equal.
template <typename T>
void expect_every_field_compared(const Mutators<T>& muts) {
  ASSERT_EQ(muts.size(), leaf_fields<T>()) << "a field has no mutator";
  const T def{};
  T dflt_init;  // default-initialised: the pads start zero too
  EXPECT_TRUE(def == dflt_init);
  T all{};
  for (const auto& m : muts) m(all);
  const T all_copy = all;
  EXPECT_TRUE(all == all_copy);
  EXPECT_FALSE(all == def);
  for (std::size_t i = 0; i < muts.size(); ++i) {
    T one = def;
    muts[i](one);
    EXPECT_FALSE(one == def) << "field " << i;
    EXPECT_FALSE(def == one) << "field " << i;
    muts[i](one);
    EXPECT_TRUE(one == def) << "field " << i;
    T all_but_one = all;
    muts[i](all_but_one);
    EXPECT_FALSE(all_but_one == all) << "field " << i;
  }
}

TEST(AxiTypes, EveryFieldOfEveryFlitTakesPartInEquality) {
  expect_every_field_compared(ax_mutators());
  expect_every_field_compared(w_mutators());
  expect_every_field_compared(b_mutators());
  expect_every_field_compared(r_mutators());
}

TEST(AxiTypes, EveryFieldOfEveryBundleTakesPartInEquality) {
  expect_every_field_compared(req_mutators());
  expect_every_field_compared(rsp_mutators());
}

TEST(AxiTypes, BraceInitKeepsTheAxiArgumentOrder) {
  constexpr AxFlit ax{7, 0x1234, 3, 2, Burst::kWrap};
  static_assert(ax.id == 7 && ax.addr == 0x1234 && ax.len == 3 &&
                ax.size == 2 && ax.burst == Burst::kWrap);
  constexpr AxFlit ax_short{7, 0x1234};
  static_assert(ax_short.len == 0 && ax_short.size == 3 &&
                ax_short.burst == Burst::kIncr);
  constexpr RFlit r{9, 0xDEAD, Resp::kSlvErr, true};
  static_assert(r.id == 9 && r.data == 0xDEAD && r.resp == Resp::kSlvErr &&
                r.last);
  constexpr RFlit r_short{9, 0xDEAD};
  static_assert(r_short.resp == Resp::kOkay && !r_short.last);
  const WFlit w{0xAB, 0x0F, true};
  EXPECT_EQ(w.data, 0xABu);
  EXPECT_EQ(w.strb, 0x0F);
  EXPECT_TRUE(w.last);
  const BFlit b{5, Resp::kDecErr};
  EXPECT_EQ(b.id, 5u);
  EXPECT_EQ(b.resp, Resp::kDecErr);

  // A brace-initialised value equals one assigned field by field: the
  // constructors leave the pads zero.
  AxFlit ax_fields;
  ax_fields.id = 7;
  ax_fields.addr = 0x1234;
  ax_fields.len = 3;
  ax_fields.size = 2;
  ax_fields.burst = Burst::kWrap;
  EXPECT_TRUE(ax == ax_fields);
  RFlit r_fields;
  r_fields.id = 9;
  r_fields.data = 0xDEAD;
  r_fields.resp = Resp::kSlvErr;
  r_fields.last = true;
  EXPECT_TRUE(r == r_fields);
}

// A wire write reports a change iff the value differs: an equal rewrite
// leaves the ambient epoch alone, and a one-field change bumps it once.
template <typename T>
void expect_wire_reports_value_changes(const Mutators<T>& muts) {
  ASSERT_EQ(sim::detail::t_change_sink, nullptr);
  sim::Wire<T> w;
  const std::uint64_t e0 = sim::ambient_epoch();
  w.write(T{});
  const T copy{};
  w.write(copy);
  w.force(T{});
  EXPECT_EQ(sim::ambient_epoch(), e0);
  for (std::size_t i = 0; i < muts.size(); ++i) {
    T v{};
    muts[i](v);
    const std::uint64_t e = sim::ambient_epoch();
    w.write(v);
    EXPECT_EQ(sim::ambient_epoch(), e + 1) << "field " << i;
    const T same = v;
    w.write(same);
    EXPECT_EQ(sim::ambient_epoch(), e + 1) << "field " << i;
    w.write(T{});
    EXPECT_EQ(sim::ambient_epoch(), e + 2) << "field " << i;
  }
}

TEST(AxiTypes, WireWriteReportsExactlyTheValueChanges) {
  expect_wire_reports_value_changes(req_mutators());
  expect_wire_reports_value_changes(rsp_mutators());
}

}  // namespace
