#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "axi/id_remap.hpp"
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
  /// so a nested crossbar only needs enough ID bits for max_ids. One
  /// axi::IdRemapper per direction, the TMU's slot discipline (§II-A):
  /// new IDs stall upstream when all slots are busy. Requires latency
  /// >= 1 and max_ids in [1, 256] (tIDs are 8 bits).
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
  /// (latency 0/0) with id_remap, mixed 0/non-0 latencies, remapping
  /// with max_ids = 0 or above 256, fifo_depth = 0.
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
  std::uint32_t active_write_ids() const { return wr_ids_.active_ids(); }
  std::uint32_t active_read_ids() const { return rd_ids_.active_ids(); }

 private:
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
  IdRemapper wr_ids_;  ///< no slots unless cfg_.id_remap
  IdRemapper rd_ids_;

  std::uint64_t cycle_ = 0;
  std::size_t writes_forwarded_ = 0, reads_forwarded_ = 0;
  bool clear_inflight_ = false;
};

}  // namespace axi
