#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/module.hpp"
#include "sim/state.hpp"
#include "sim/wire.hpp"

namespace soc {

/// PLIC-lite: latches level interrupts from N sources into a pending
/// mask; the CPU stub claims the highest-priority (lowest-index) pending
/// source and completes it after running its handler.
class IrqController : public sim::Module {
 public:
  explicit IrqController(std::string name) : sim::Module(std::move(name)) {}

  /// Latches level sources in tick() only; schedulers skip it in settle.
  bool is_combinational() const override { return false; }

  /// Registers an interrupt source; returns its source id.
  std::size_t add_source(sim::Wire<bool>& w) {
    sources_.push_back(&w);
    pending_.push_back(false);
    claimed_.push_back(false);
    return sources_.size() - 1;
  }

  /// Sets the claimant's wake-up: called from tick() at every edge that
  /// latches a source newly pending. A claimant that sleeps while
  /// claim() finds nothing (CpuRecoveryStub) wakes through it at the
  /// latching edge, so it claims at the edge it would have claimed at
  /// had it polled every cycle, whichever of the two ticks first.
  void on_latch(std::function<void()> wake) { on_latch_ = std::move(wake); }

  void tick() override {
    bool latched = false;
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      if (sources_[i]->read() && !claimed_[i] && !pending_[i]) {
        pending_[i] = true;
        latched = true;
      }
    }
    if (latched && on_latch_) on_latch_();
    // Every unclaimed high source is latched now: the next tick repeats
    // this one until a source toggles or complete() releases a claim.
    set_tick_idle(true);
  }
  void visit_inputs(sim::InputVisitor& in) override {
    for (sim::Wire<bool>* w : sources_) in.tick_input(*w);
  }

  void reset() override {
    std::fill(pending_.begin(), pending_.end(), false);
    std::fill(claimed_.begin(), claimed_.end(), false);
  }

  bool any_pending() const {
    for (bool p : pending_) {
      if (p) return true;
    }
    return false;
  }

  /// Claims the lowest-index pending source; -1 if none.
  int claim() {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i]) {
        pending_[i] = false;
        claimed_[i] = true;
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  void complete(std::size_t id) {
    wake();  // a still-high source latches again at the next edge
    claimed_[id] = false;
  }

  /// State serde (sim/state.hpp). The source list is wiring, not state.
  void visit_state(sim::StateVisitor& v) override {
    visit(v, pending_);
    visit(v, claimed_);
  }

 private:
  std::vector<sim::Wire<bool>*> sources_;
  std::vector<bool> pending_;
  std::vector<bool> claimed_;
  std::function<void()> on_latch_;
};

}  // namespace soc
