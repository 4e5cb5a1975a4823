#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/module.hpp"
#include "sim/state.hpp"
#include "soc/irq.hpp"
#include "tmu/regs.hpp"
#include "tmu/tmu.hpp"

namespace soc {

/// Models the software side of the paper's recovery flow: the CPU takes
/// the TMU interrupt, runs a handler (fixed latency), reads the fault
/// log through the TMU register file, clears the interrupt and counts
/// the event. One stub can service several TMUs via the PLIC-lite.
///
/// The handler completes its PLIC claim one edge after its IrqClear
/// write, the order firmware issues the two writes in. The cleared line
/// drops at the settle that follows the write, so by the completion it
/// is low, and a PLIC ticking after the stub at the completing edge
/// cannot latch the interrupt just handled a second time. A line still
/// high then (a new fault) latches at that edge or the next.
///
/// Tick gating: idle with nothing to claim, the stub sleeps, and the
/// PLIC wakes it when a source latches (IrqController::on_latch). The
/// PLIC's source wires would not do as tick inputs: a stub registered
/// before the PLIC would wake on the wire, find nothing to claim at that
/// edge and sleep through the latch that follows it. The PLIC keeps the
/// stub's wake-up, so it must not tick after the stub is destroyed.
class CpuRecoveryStub : public sim::Module {
 public:
  CpuRecoveryStub(std::string name, IrqController& plic,
                  std::vector<tmu::Tmu*> tmus,
                  std::uint32_t handler_latency = 20)
      : sim::Module(std::move(name)),
        plic_(plic),
        tmus_(std::move(tmus)),
        handler_latency_(handler_latency) {
    plic_.on_latch([this] { wake(); });
  }

  /// Runs its handler state machine in tick() only; schedulers skip it
  /// in settle.
  bool is_combinational() const override { return false; }

  void tick() override {
    set_tick_idle(false);
    if (state_ == State::kHandling) {
      if (++count_ >= handler_latency_) {
        tmu::Tmu* t = tmus_[current_];
        // Drain the fault FIFO the way firmware would.
        while (t->read_reg(tmu::regs::kFaultInfo) != 0) {
          ++faults_read_;
        }
        t->write_reg(tmu::regs::kIrqClear, 1);
        ++irqs_handled_;
        state_ = State::kCompleting;
      }
      return;
    }
    if (state_ == State::kCompleting) {
      plic_.complete(current_);
      state_ = State::kIdle;
    }
    const int src = plic_.claim();
    if (src >= 0) {
      current_ = static_cast<std::size_t>(src);
      count_ = 0;
      state_ = State::kHandling;
    } else {
      // An empty claim changes nothing, so until the PLIC latches a
      // source every tick repeats it: asleep, skip_ticks() has nothing
      // to catch up.
      set_tick_idle(true);
    }
  }

  void reset() override {
    state_ = State::kIdle;
    count_ = 0;
    irqs_handled_ = 0;
    faults_read_ = 0;
  }

  std::uint64_t irqs_handled() const { return irqs_handled_; }
  std::uint64_t faults_read() const { return faults_read_; }

  /// State serde (sim/state.hpp): the handler state machine.
  void visit_state(sim::StateVisitor& v) override {
    visit(v, state_);
    visit(v, current_);
    visit(v, count_);
    visit(v, irqs_handled_);
    visit(v, faults_read_);
  }

 private:
  enum class State { kIdle, kHandling, kCompleting };

  IrqController& plic_;
  std::vector<tmu::Tmu*> tmus_;
  std::uint32_t handler_latency_;

  State state_ = State::kIdle;
  std::size_t current_ = 0;
  std::uint32_t count_ = 0;
  std::uint64_t irqs_handled_ = 0;
  std::uint64_t faults_read_ = 0;
};

}  // namespace soc
