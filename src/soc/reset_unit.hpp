#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/module.hpp"
#include "sim/state.hpp"
#include "sim/wire.hpp"

namespace soc {

/// External hardware reset unit (paper §II-B, [6]): on a reset request
/// from the TMU it holds the target subordinate in reset for a
/// configurable number of cycles (invoking `apply_reset` once at the
/// start), then acknowledges until the request deasserts.
class ResetUnit : public sim::Module {
 public:
  ResetUnit(std::string name, sim::Wire<bool>& req, sim::Wire<bool>& ack,
            std::function<void()> apply_reset, std::uint32_t duration = 4)
      : sim::Module(std::move(name)),
        req_(req),
        ack_(ack),
        apply_reset_(std::move(apply_reset)),
        duration_(duration) {}

  void eval() override { ack_.write(state_ == State::kAck); }

  void tick() override {
    const State s0 = state_;
    switch (state_) {
      case State::kIdle:
        if (req_.read()) {
          if (apply_reset_) apply_reset_();
          ++resets_performed_;
          count_ = 0;
          state_ = duration_ == 0 ? State::kAck : State::kResetting;
        }
        break;
      case State::kResetting:
        if (++count_ >= duration_) state_ = State::kAck;
        break;
      case State::kAck:
        if (!req_.read()) state_ = State::kIdle;
        break;
    }
    tick_evt_ = state_ != s0;  // eval() is a pure function of state_
    // Idle or acknowledging with the request unchanged: nothing moves
    // until the request toggles.
    set_tick_idle(!tick_evt_ && state_ != State::kResetting);
  }

  void visit_inputs(sim::InputVisitor& in) override { in.tick_input(req_); }

  void reset() override {
    state_ = State::kIdle;
    count_ = 0;
    resets_performed_ = 0;
    ack_.force(false);
  }

  std::uint64_t resets_performed() const { return resets_performed_; }
  bool busy() const { return state_ != State::kIdle; }

  void visit_state(sim::StateVisitor& v) override {
    visit(v, state_);
    visit(v, count_);
    visit(v, resets_performed_);
    visit(v, tick_evt_);
  }

 private:
  enum class State { kIdle, kResetting, kAck };

  sim::Wire<bool>& req_;
  sim::Wire<bool>& ack_;
  std::function<void()> apply_reset_;
  std::uint32_t duration_;

  State state_ = State::kIdle;
  std::uint32_t count_ = 0;
  std::uint64_t resets_performed_ = 0;
};

}  // namespace soc
