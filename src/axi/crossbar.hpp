#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "axi/link.hpp"
#include "axi/types.hpp"
#include "axi/xbar_state.hpp"
#include "sim/module.hpp"
#include "sim/wire.hpp"

namespace axi {

/// Rows of bits over crossbar ports: row r holds `width` bits in
/// ceil(width / 64) words, walked one set bit at a time with
/// std::countr_zero. The crossbar keeps its derived occupancy state in
/// these (never serialized; see Crossbar).
class PortMasks {
 public:
  PortMasks(std::size_t rows, std::size_t width)
      : rows_(rows), width_(width), words_((width + 63) / 64),
        bits_(rows * words_, 0) {}

  void set(std::size_t row, std::size_t i) { word(row, i) |= bit(i); }
  void clear(std::size_t row, std::size_t i) { word(row, i) &= ~bit(i); }
  void assign(std::size_t row, std::size_t i, bool on) {
    on ? set(row, i) : clear(row, i);
  }

  /// Every bit of every row on, or every bit off.
  void fill(bool on) {
    std::fill(bits_.begin(), bits_.end(), on ? ~std::uint64_t{0} : 0);
    if (on && width_ % 64 != 0) {
      for (std::size_t r = 0; r < rows_; ++r) {
        bits_[r * words_ + words_ - 1] = bit(width_) - 1;
      }
    }
  }

  bool any() const {
    for (const std::uint64_t w : bits_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Calls f(i) for every set bit i of `row`, in ascending order. Bits
  /// of the row that f sets or clears may or may not be visited.
  template <typename F>
  void for_each(std::size_t row, F&& f) const {
    const std::uint64_t* w = &bits_[row * words_];
    for (std::size_t k = 0; k < words_; ++k) {
      for (std::uint64_t b = w[k]; b != 0; b &= b - 1) {
        f(k * 64 + static_cast<std::size_t>(std::countr_zero(b)));
      }
    }
  }

  /// The lowest set bit i of `row` with pred(i), or `width`.
  template <typename P>
  std::size_t find(std::size_t row, P&& pred) const {
    const std::uint64_t* w = &bits_[row * words_];
    for (std::size_t k = 0; k < words_; ++k) {
      for (std::uint64_t b = w[k]; b != 0; b &= b - 1) {
        const std::size_t i =
            k * 64 + static_cast<std::size_t>(std::countr_zero(b));
        if (pred(i)) return i;
      }
    }
    return width_;
  }

 private:
  static std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << (i % 64);
  }
  std::uint64_t& word(std::size_t row, std::size_t i) {
    return bits_[row * words_ + i / 64];
  }

  std::size_t rows_, width_, words_;
  std::vector<std::uint64_t> bits_;
};

/// N-manager x M-subordinate AXI4 crossbar.
///
/// * Address-decoded routing via an AddrRange map (validated at
///   construction: overlapping or zero-size ranges throw); unmapped
///   addresses go to an internal default subordinate that responds
///   DECERR.
/// * Per-subordinate round-robin arbitration on AW and AR.
/// * W beats are routed by a per-subordinate FIFO of granted managers
///   (AXI4 forbids W interleaving) and a per-manager FIFO of granted
///   subordinates (a manager sends W in its own AW order).
/// * Manager index is carried in the upper ID bits
///   (out_id = in_id | mgr << id_shift) so B/R route back by ID.
/// * AXI same-ID ordering: a manager's AW/AR with an ID that is already
///   outstanding towards a *different* subordinate is stalled until those
///   transactions drain (standard axi_xbar behaviour), because responses
///   from distinct subordinates could otherwise interleave out of order.
///
/// This class is a thin facade over per-port shards: M request-path
/// shards (AW/AR arbitration + W routing for one subordinate) and N
/// response-path shards (decode/demux + B/R mux for one manager),
/// coupled through internal per-(manager, subordinate) wires. Each
/// shard is its own sim::Module, registered automatically via
/// Simulator::add's submodule visit, so the event-driven scheduler
/// wakes only shards whose wires changed: an idle port costs zero
/// evals, and a busy port's eval scans only the internal wires its
/// occupancy mask marks, O(active ports) instead of O(N) or O(M). All
/// registered state lives in one XbarState committed by tick() exactly
/// once per edge. tests/test_xbar_shard_equiv.cpp pins every external
/// link of its netlists against committed link-trace digests.
class Crossbar : public sim::Module {
 public:
  Crossbar(std::string name, std::vector<Link*> managers,
           std::vector<Link*> subordinates, std::vector<AddrRange> map,
           unsigned id_shift = 8);
  ~Crossbar() override;

  void tick() override;
  void reset() override;
  /// The facade drives no wires — the shards do — so both settle
  /// kernels skip its eval entirely.
  bool is_combinational() const override { return false; }
  void visit_submodules(
      const std::function<void(sim::Module&)>& visit) override;
  /// Both directions of every port, which tick() samples; the shards
  /// declare their own eval inputs.
  void visit_inputs(sim::InputVisitor& in) override;
  /// Facade-owned registered state + the internal shard-coupling wires;
  /// the shards' own scratch (stale-wire bookkeeping) rides along via
  /// their visit_state in the netlist walk.
  void visit_state(sim::StateVisitor& v) override;

  std::size_t decode_errors() const { return st_.decode_errors; }

 private:
  class MgrShard;
  class SubShard;
  friend class MgrShard;
  friend class SubShard;

  static constexpr std::size_t kDecErr = XbarState::kDecErr;
  /// "no port selected" sentinel for shard-internal mux results;
  /// distinct from kDecErr.
  static constexpr std::size_t kNone = kDecErr - 1;

  /// Round-robin distance of `idx` from pointer `rr` over `mod` slots:
  /// the scan-order rank the seed's first-match loops implied, so
  /// "minimum distance" selects exactly the seed's winner.
  static std::size_t rr_dist(std::size_t idx, std::size_t rr,
                             std::size_t mod) {
    return (idx + mod - rr) % mod;
  }

  /// Calls `reset(i)` for each in-range port of `prev` that is no longer
  /// in `cur`; the caller writes that wire back to its default value and
  /// clears its occupancy bit. Together with writing (and marking) every
  /// `cur` port each eval, this maintains the sparse-write invariant both
  /// shard types rely on: a wire indexed outside the last eval's `cur`
  /// array provably holds a default-constructed value, so its bit in the
  /// reader's occupancy mask may be clear.
  template <typename Reset>
  static void reset_stale(const std::array<std::size_t, 5>& prev,
                          const std::array<std::size_t, 5>& cur,
                          std::size_t bound, Reset&& reset) {
    for (const std::size_t i : prev) {
      if (i >= bound) continue;
      bool still_active = false;
      for (const std::size_t c : cur) still_active = still_active || c == i;
      if (!still_active) reset(i);
    }
  }

  /// The masks for default internal wires and empty DECERR queues
  /// (construction, reset()): no occupancy, no DECERR activity. The live
  /// ports and the shards whose report the previous edge raised are set
  /// conservatively, to all ones: the shards' evals and the next tick()
  /// narrow them.
  void reset_masks();
  /// After a restore: reset_masks(), then occupancy from the loaded
  /// internal wires and DECERR activity from the loaded queues.
  void rebuild_masks();

  sim::Wire<AxiReq>& xreq(std::size_t m, std::size_t s) {
    return xreq_[m * subs_.size() + s];
  }
  sim::Wire<AxiRsp>& xrsp(std::size_t m, std::size_t s) {
    return xrsp_[m * subs_.size() + s];
  }

  std::vector<Link*> mgrs_;
  std::vector<Link*> subs_;
  XbarState st_;

  // Internal shard-to-shard wires, [m * n_s + s].
  // Request direction carries the demuxed per-pair valids/payloads and
  // the response-channel readies; response direction carries the
  // per-pair grant readies and the demuxed B/R flits.
  std::vector<sim::Wire<AxiReq>> xreq_;
  std::vector<sim::Wire<AxiRsp>> xrsp_;
  std::vector<std::unique_ptr<MgrShard>> mgr_shards_;
  std::vector<std::unique_ptr<SubShard>> sub_shards_;

  std::vector<std::uint32_t> tick_aw_hint_;  ///< decoder last-hit caches
  std::vector<std::uint32_t> tick_ar_hint_;

  // Derived state: never serialized; see reset_masks(). A set
  // bit means "may be active", so a superset is always safe — a default
  // wire or a quiet port contributes nothing to the scan that reads it.
  /// Row s: managers m whose xreq(m, s) may be non-default — between
  /// rebuilds, exactly the ports m whose MgrShard holds s in its
  /// stale-wire slots. SubShard s scans only these.
  PortMasks xreq_occ_;
  /// Row m: subordinates s whose xrsp(m, s) may be non-default. MgrShard
  /// m scans only these, and tick() finds a B/R source among them.
  PortMasks xrsp_occ_;
  /// Manager ports whose MgrShard last saw a request valid or drove a
  /// response valid: the only ports at which tick() can commit anything.
  PortMasks live_mgrs_;
  /// Shards whose edge report the last edge raised: the next tick()
  /// lowers these reports and no others. These masks and the shards'
  /// own reports are the only record of the per-shard edge flags.
  PortMasks evt_mgrs_;
  PortMasks evt_subs_;
  /// Managers with a non-empty DECERR queue.
  PortMasks dec_mgrs_;
};

}  // namespace axi
