#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "axi/link.hpp"
#include "axi/types.hpp"
#include "sim/module.hpp"

namespace axi {

/// Timing/ID knobs of an axi::Bridge.
struct BridgeConfig {
  /// Cycles a request-channel flit (AW/W/AR) spends crossing the bridge.
  /// 0 on *both* directions makes the bridge fully transparent: a pure
  /// combinational feed-through with no registered state (used by the
  /// degenerate-hierarchy equivalence tests). Mixed 0/non-0 latencies
  /// are rejected.
  std::uint32_t req_latency = 1;
  /// Cycles a response-channel flit (B/R) spends crossing back.
  std::uint32_t rsp_latency = 1;
  /// Compact the upstream ID space (which carries the parent crossbar's
  /// manager prefix) into tIDs in [0, max_ids) on the downstream side,
  /// so a nested crossbar only needs enough ID bits for max_ids. New IDs
  /// stall upstream when all slots are busy. Requires latency >= 1.
  bool id_remap = false;
  std::uint32_t max_ids = 16;
  /// Per-channel staging capacity; full queues backpressure the sender.
  std::size_t fifo_depth = 8;

  bool operator==(const BridgeConfig&) const = default;
};

/// Two-port AXI4 bridge between interconnect levels: the upstream side
/// is a subordinate port (a parent-crossbar endpoint drives it), the
/// downstream side is a manager port (it drives a nested cluster
/// crossbar). All five channels are forwarded through per-channel
/// timestamped queues, adding cfg.req_latency / cfg.rsp_latency cycles
/// per crossing, with optional ID compaction for the nested ID space.
///
/// Moore-style when latched (every output a function of registered
/// queue state), so eval() is trivially idempotent; an idle bridge
/// reports tick_changed_eval_state() == false and costs zero evals
/// under the event-driven scheduler. With both latencies 0 the bridge
/// degenerates to a combinational wire pair (no state at all), which
/// the 1-level hierarchy-equivalence test relies on.
class Bridge : public sim::Module {
 public:
  /// Throws std::invalid_argument on inconsistent configs: transparent
  /// (latency 0/0) with id_remap, mixed 0/non-0 latencies, max_ids = 0,
  /// fifo_depth = 0.
  Bridge(std::string name, Link& up, Link& down, BridgeConfig cfg = {});

  void eval() override;
  void tick() override;
  void reset() override;
  /// Latched, eval() reads only the upstream request (the offered IDs'
  /// admission); transparent, it forwards both directions.
  void visit_inputs(sim::InputVisitor& in) override {
    in.input(up_.req);
    if (transparent()) {
      in.input(down_.rsp);
    } else {
      in.tick_input(up_.req);
      in.tick_input(up_.rsp);
      in.tick_input(down_.req);
      in.tick_input(down_.rsp);
    }
  }
  /// Latched and drained, a tick only advances cycle_; transparent, it
  /// does nothing.
  void skip_ticks(std::uint64_t n) override {
    if (!transparent()) cycle_ += n;
  }
  void visit_state(sim::StateVisitor& v) override;

  bool transparent() const {
    return cfg_.req_latency == 0 && cfg_.rsp_latency == 0;
  }
  const BridgeConfig& config() const { return cfg_; }

  /// External hardware reset input (from a reset unit, when a guard is
  /// placed on the bridge): drops all staged flits and ID mappings,
  /// like a real bridge losing its in-flight state on a domain reset.
  void hw_reset() {
    clear_inflight_ = true;
    notify_state_change();
  }

  std::size_t writes_forwarded() const { return writes_forwarded_; }
  std::size_t reads_forwarded() const { return reads_forwarded_; }
  std::uint32_t active_write_ids() const { return wr_ids_.active(); }
  std::uint32_t active_read_ids() const { return rd_ids_.active(); }

 private:
  /// Compact ID allocator (the TMU remapper's discipline, §II-A): a
  /// slot is claimed by the first outstanding transaction of an ID and
  /// freed when its count drops to zero; same upstream ID keeps the
  /// same tID while busy, preserving AXI same-ID ordering end to end.
  class IdPool {
   public:
    void resize(std::uint32_t n) { slots_.assign(n, Slot{}); }
    bool can_admit(Id id) const {
      return lookup(id).has_value() || free_slot().has_value();
    }
    std::optional<std::uint32_t> admit(Id id) {
      if (auto t = lookup(id)) {
        ++slots_[*t].outstanding;
        return t;
      }
      if (auto f = free_slot()) {
        slots_[*f].id = id;
        slots_[*f].outstanding = 1;
        map_[id] = *f;
        return f;
      }
      return std::nullopt;
    }
    bool busy(std::uint64_t tid) const {
      return tid < slots_.size() && slots_[tid].outstanding > 0;
    }
    Id original_id(std::uint32_t tid) const { return slots_[tid].id; }
    void release(std::uint32_t tid) {
      Slot& s = slots_[tid];
      if (s.outstanding > 0 && --s.outstanding == 0) map_.erase(s.id);
    }
    std::uint32_t active() const {
      return static_cast<std::uint32_t>(map_.size());
    }
    void clear() {
      for (Slot& s : slots_) s = {};
      map_.clear();
    }

    /// State serde: slots only; map_ is a derived index rebuilt on load
    /// (unordered iteration never reaches the byte stream), and only
    /// where it disagrees with the loaded slots, so a restore that finds
    /// it right keeps its nodes.
    template <typename V>
    void visit_fields(V& v) {
      std::uint64_t n = slots_.size();
      v.count(n);
      if (!v.saving() && n != slots_.size()) {
        v.fail("bridge ID pool size mismatch: snapshot has " +
               std::to_string(n) + " slots, pool has " +
               std::to_string(slots_.size()));
      }
      for (Slot& s : slots_) {
        visit(v, s.id);
        visit(v, s.outstanding);
      }
      if (!v.saving() && !index_matches()) {
        map_.clear();
        for (std::uint32_t i = 0; i < slots_.size(); ++i) {
          if (slots_[i].outstanding > 0) map_[slots_[i].id] = i;
        }
      }
    }

   private:
    struct Slot {
      Id id = 0;
      std::uint32_t outstanding = 0;
    };
    std::optional<std::uint32_t> lookup(Id id) const {
      const auto it = map_.find(id);
      if (it == map_.end()) return std::nullopt;
      return it->second;
    }
    /// map_ is exactly what rebuilding it from slots_ would give.
    bool index_matches() const {
      std::size_t live = 0;
      for (std::uint32_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].outstanding == 0) continue;
        ++live;
        const auto it = map_.find(slots_[i].id);
        if (it == map_.end() || it->second != i) return false;
      }
      return live == map_.size();
    }
    std::optional<std::uint32_t> free_slot() const {
      for (std::uint32_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].outstanding == 0) return i;
      }
      return std::nullopt;
    }
    std::vector<Slot> slots_;
    std::unordered_map<Id, std::uint32_t> map_;
  };

  /// A flit in flight across the bridge, visible on the far side once
  /// the simulation reaches `ready_at`.
  template <typename F>
  struct Timed {
    F flit{};
    std::uint64_t ready_at = 0;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, flit);
      visit(v, ready_at);
    }
  };

  Link& up_;
  Link& down_;
  BridgeConfig cfg_;

  std::deque<Timed<AwFlit>> aw_q_;  ///< downbound
  std::deque<Timed<WFlit>> w_q_;    ///< downbound
  std::deque<Timed<ArFlit>> ar_q_;  ///< downbound
  std::deque<Timed<BFlit>> b_q_;    ///< upbound
  std::deque<Timed<RFlit>> r_q_;    ///< upbound
  IdPool wr_ids_;
  IdPool rd_ids_;

  std::uint64_t cycle_ = 0;
  std::size_t writes_forwarded_ = 0, reads_forwarded_ = 0;
  bool clear_inflight_ = false;
};

}  // namespace axi
