#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "axi/link.hpp"
#include "sim/module.hpp"
#include "sim/wire.hpp"
#include "tmu/config.hpp"
#include "tmu/fault.hpp"
#include "tmu/guard.hpp"

namespace tmu {

/// One timestamped TMU state transition, for timeline tooling
/// (trace::export_chrome_json renders these as instant events). Kept in
/// a small bounded log besides the fault log: the fault log is the
/// paper's per-violation hardware FIFO, this is the detect → sever →
/// reset-request → recover arc of each incident.
struct LifecycleEvent {
  enum class Kind : std::uint8_t { kDetect, kSever, kResetReq, kRecover };
  std::uint64_t cycle = 0;
  Kind kind = Kind::kDetect;

  bool operator==(const LifecycleEvent&) const = default;

  /// Flat (sim/state.hpp): a log of these loads with one bounds check.
  static constexpr bool kFlatState = true;
  template <typename V>
  void visit_fields(V& v) {
    visit(v, cycle);
    visit(v, kind);
  }
};

inline const char* to_string(LifecycleEvent::Kind k) {
  switch (k) {
    case LifecycleEvent::Kind::kDetect: return "detect";
    case LifecycleEvent::Kind::kSever: return "sever";
    case LifecycleEvent::Kind::kResetReq: return "reset_req";
    case LifecycleEvent::Kind::kRecover: return "recover";
  }
  return "?";
}

/// Transaction Monitoring Unit: the paper's drop-in monitor between the
/// AXI4 interconnect (manager side, `mst` link) and a subordinate
/// endpoint (`sub` link).
///
/// Normal operation is a zero-latency combinational pass-through while
/// the Write/Read Guards listen in parallel. On a fault (protocol
/// violation or timeout) the TMU:
///   1. severs both request and response paths,
///   2. answers the manager with SLVERR for all outstanding transactions
///      (aborting them) and drains in-flight W beats,
///   3. raises the `irq` wire and asserts `reset_req` towards an
///      external reset unit,
///   4. once `reset_ack` arrives and the aborts have drained, clears all
///      tracking state and resumes monitoring.
///
/// The TMU also back-pressures new AW/AR requests when the OTT or ID
/// remapper is saturated (requests stall, nothing is dropped).
class Tmu : public sim::Module {
 public:
  Tmu(std::string name, axi::Link& mst, axi::Link& sub, TmuConfig cfg);

  void eval() override;
  void tick() override;
  void reset() override;
  void visit_inputs(sim::InputVisitor& in) override {
    in.input(mst_.req);
    in.input(sub_.rsp);
    in.tick_input(mst_.req);
    in.tick_input(mst_.rsp);
    in.tick_input(reset_ack);
  }
  /// Idle monitoring (nothing outstanding, quiet manager port) or
  /// disabled: only cycle_ and, while enabled, the guards' prescaler
  /// phases move.
  void skip_ticks(std::uint64_t n) override;
  void visit_state(sim::StateVisitor& v) override;

  // ---- fault / recovery interface ----
  sim::Wire<bool> irq;        ///< level interrupt to the PLIC / CPU
  sim::Wire<bool> reset_req;  ///< to the external reset unit
  sim::Wire<bool> reset_ack;  ///< from the external reset unit

  bool severed() const { return severed_; }
  std::uint64_t resets_requested() const { return resets_requested_; }
  std::uint64_t recoveries() const { return recoveries_; }

  /// Full error log (Fc: phase-level detail; Tc: transaction-level).
  const std::vector<FaultRecord>& fault_log() const { return fault_log_; }
  /// Entries lost to the bounded hardware log FIFO.
  std::uint64_t fault_log_dropped() const { return fault_log_dropped_; }
  /// First-fault convenience: cycle of the first logged fault.
  bool any_fault() const { return !fault_log_.empty(); }

  /// Timestamped detect/sever/reset-request/recover transitions, for
  /// timeline export. Bounded like the fault log.
  const std::vector<LifecycleEvent>& lifecycle_log() const {
    return lifecycle_log_;
  }
  std::uint64_t lifecycle_log_dropped() const { return lifecycle_dropped_; }

  // ---- monitoring state ----
  WriteGuard& write_guard() { return wg_; }
  const WriteGuard& write_guard() const { return wg_; }
  ReadGuard& read_guard() { return rg_; }
  const ReadGuard& read_guard() const { return rg_; }
  const TmuConfig& config() const { return cfg_; }
  std::uint64_t cycle() const { return cycle_; }

  /// Clears the level interrupt. Takes effect immediately, like the
  /// register write a recovery handler performs.
  void clear_irq() {
    irq_latched_ = false;
    notify_state_change();
  }

  // ---- software register file (§II-A) ----
  /// 32-bit register read/write at a byte offset; see regs.cpp for the
  /// map. Writes take effect at the next clock edge.
  std::uint32_t read_reg(std::uint32_t offset);
  void write_reg(std::uint32_t offset, std::uint32_t value);

 private:
  struct AbortB {
    axi::Id id = 0;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, id);
    }
  };
  struct AbortR {
    axi::Id id = 0;
    unsigned beats_left = 0;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, id);
      visit(v, beats_left);
      axi::check_beats_left(v, beats_left, "TMU read abort");
    }
  };

  void enter_severed();
  void finish_recovery();
  bool irq_state_() const;
  void log_lifecycle(LifecycleEvent::Kind k);

  axi::Link& mst_;
  axi::Link& sub_;
  TmuConfig cfg_;
  WriteGuard wg_;
  ReadGuard rg_;

  bool severed_ = false;
  bool ack_seen_ = false;
  std::deque<AbortB> abort_b_;
  std::deque<AbortR> abort_r_;
  unsigned undrained_beats_ = 0;   ///< W beats of severed writes to drain
  std::uint32_t w_idle_cycles_ = 0;
  static constexpr std::uint32_t kDrainGrace = 64;
  unsigned swallow_beats_ = 0;     ///< post-recovery stray W beats to eat

  static constexpr std::size_t kLifecycleDepth = 256;
  std::vector<FaultRecord> fault_log_;
  std::uint64_t fault_log_dropped_ = 0;
  std::vector<LifecycleEvent> lifecycle_log_;
  std::uint64_t lifecycle_dropped_ = 0;
  std::uint64_t resets_requested_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t cycle_ = 0;
  bool irq_latched_ = false;        ///< level interrupt, cleared by sw
  std::size_t fault_read_ptr_ = 0;  ///< regfile FAULT_FIFO cursor
};

}  // namespace tmu
