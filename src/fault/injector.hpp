#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "axi/link.hpp"
#include "axi/types.hpp"
#include "sim/module.hpp"
#include "sim/state.hpp"

namespace fault {

/// Where to break the transaction flow. Mirrors the paper's IP-level
/// fault-injection set (Fig. 9) plus read-channel equivalents:
///   AW stage error .......... kAwReadyStuck (missing aw_ready)
///   W stage timeout ......... kWValidStuck  (no data from the manager)
///   W datapath error ........ kWReadyStuck  (w_ready failure)
///   Data transfer error ..... kMidBurstWStall / kWLastEarly
///   w_last->b_valid error ... kBValidStuck
///   B handshake error ....... kBWrongId / kSpuriousB (ID mismatch /
///                             unrequested response)
enum class FaultPoint : std::uint8_t {
  kNone = 0,
  // Subordinate-side (response path) faults.
  kAwReadyStuck,
  kWReadyStuck,
  kMidBurstWStall,
  kBValidStuck,
  kBWrongId,
  kSpuriousB,
  kArReadyStuck,
  kRValidStuck,
  kMidBurstRStall,
  kRWrongId,
  kSpuriousR,
  // Manager-side (request path) faults.
  kWValidStuck,
  kAwValidDrop,
  kWLastEarly,
  kBReadyStuck,  ///< manager never accepts the write response
  kRReadyStuck,  ///< manager never accepts read data
};

inline const char* to_string(FaultPoint p) {
  switch (p) {
    case FaultPoint::kNone: return "none";
    case FaultPoint::kAwReadyStuck: return "aw_ready_stuck";
    case FaultPoint::kWReadyStuck: return "w_ready_stuck";
    case FaultPoint::kMidBurstWStall: return "mid_burst_w_stall";
    case FaultPoint::kBValidStuck: return "b_valid_stuck";
    case FaultPoint::kBWrongId: return "b_wrong_id";
    case FaultPoint::kSpuriousB: return "spurious_b";
    case FaultPoint::kArReadyStuck: return "ar_ready_stuck";
    case FaultPoint::kRValidStuck: return "r_valid_stuck";
    case FaultPoint::kMidBurstRStall: return "mid_burst_r_stall";
    case FaultPoint::kRWrongId: return "r_wrong_id";
    case FaultPoint::kSpuriousR: return "spurious_r";
    case FaultPoint::kWValidStuck: return "w_valid_stuck";
    case FaultPoint::kAwValidDrop: return "aw_valid_drop";
    case FaultPoint::kWLastEarly: return "w_last_early";
    case FaultPoint::kBReadyStuck: return "b_ready_stuck";
    case FaultPoint::kRReadyStuck: return "r_ready_stuck";
  }
  return "?";
}

/// True for fault points mutating the manager->subordinate direction.
inline bool is_manager_side(FaultPoint p) {
  return p == FaultPoint::kWValidStuck || p == FaultPoint::kAwValidDrop ||
         p == FaultPoint::kWLastEarly || p == FaultPoint::kBReadyStuck ||
         p == FaultPoint::kRReadyStuck;
}

/// Pass-through link stage that injects one configured fault once its
/// trigger condition holds. Insert it on either side of the TMU:
/// upstream (manager side) for manager faults, downstream (subordinate
/// side) for subordinate faults.
///
///   upstream.req  --> [mutate if manager-side fault] --> downstream.req
///   upstream.rsp  <-- [mutate if subordinate fault]  <-- downstream.rsp
class FaultInjector : public sim::Module {
 public:
  FaultInjector(std::string name, axi::Link& upstream, axi::Link& downstream)
      : sim::Module(std::move(name)), up_(upstream), down_(downstream) {}

  /// Arms the injector: the fault activates at `at_cycle` AND once
  /// `after_w_beats` / `after_r_beats` beats have been observed.
  void arm(FaultPoint point, std::uint64_t at_cycle = 0,
           unsigned after_w_beats = 0, unsigned after_r_beats = 0) {
    point_ = point;
    at_cycle_ = at_cycle;
    after_w_beats_ = after_w_beats;
    after_r_beats_ = after_r_beats;
    started_ = false;
    start_cycle_ = 0;
    notify_state_change();
  }

  void disarm() {
    point_ = FaultPoint::kNone;
    started_ = false;
    notify_state_change();
  }

  bool fault_active() const { return started_; }
  /// First cycle the fault condition was applied (detection-latency t0).
  std::uint64_t fault_start_cycle() const { return start_cycle_; }
  FaultPoint point() const { return point_; }
  std::uint64_t w_beats_seen() const { return w_beats_; }
  std::uint64_t r_beats_seen() const { return r_beats_; }

  void eval() override;
  void tick() override;
  void reset() override;
  void visit_inputs(sim::InputVisitor& in) override {
    in.input(up_.req);
    in.input(down_.rsp);
    in.tick_input(down_.req);
    in.tick_input(up_.rsp);
  }
  /// Disarmed and beat-free, a tick only advances cycle_.
  void skip_ticks(std::uint64_t n) override { cycle_ += n; }

  void visit_state(sim::StateVisitor& v) override {
    visit(v, point_);
    visit(v, at_cycle_);
    visit(v, after_w_beats_);
    visit(v, after_r_beats_);
    visit(v, started_);
    visit(v, start_cycle_);
    visit(v, cycle_);
    visit(v, w_beats_);
    visit(v, r_beats_);
  }

 private:
  bool triggered() const {
    return point_ != FaultPoint::kNone && cycle_ >= at_cycle_ &&
           w_beats_ >= after_w_beats_ && r_beats_ >= after_r_beats_;
  }

  axi::Link& up_;
  axi::Link& down_;

  FaultPoint point_ = FaultPoint::kNone;
  std::uint64_t at_cycle_ = 0;
  unsigned after_w_beats_ = 0;
  unsigned after_r_beats_ = 0;

  bool started_ = false;
  std::uint64_t start_cycle_ = 0;
  std::uint64_t cycle_ = 0;
  std::uint64_t w_beats_ = 0;
  std::uint64_t r_beats_ = 0;
};

}  // namespace fault
