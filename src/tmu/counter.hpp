#pragma once

#include <cstdint>

namespace tmu {

/// Hardware prescaler: emits one pulse every `step` cycles. All TMU
/// counters increment on the pulse only, so they can be ceil(log2(B/step))
/// bits wide instead of ceil(log2(B)) (§II-G).
class Prescaler {
 public:
  explicit Prescaler(std::uint32_t step = 1) : step_(step ? step : 1) {}

  /// Advances one clock cycle; returns true on a pulse.
  bool tick() {
    if (++count_ >= step_) {
      count_ = 0;
      return true;
    }
    return false;
  }

  /// Exactly n tick()s, pulses discarded (an idle guard's catch-up).
  void advance(std::uint64_t n) {
    if (n == 0) return;
    if (count_ >= step_) {  // a step lowered below the phase: wraps first
      count_ = 0;
      --n;
    }
    count_ = static_cast<std::uint32_t>((count_ + n) % step_);
  }

  void reset() { count_ = 0; }
  std::uint32_t step() const { return step_; }
  void set_step(std::uint32_t step) { step_ = step ? step : 1; }

  template <typename V>
  void visit_fields(V& v) {
    visit(v, count_);
  }

 private:
  std::uint32_t step_;
  std::uint32_t count_ = 0;
};

/// One monitoring counter running behind a prescaler, with the optional
/// sticky bit: once a near-timeout condition (counter at limit-1) is
/// observed at a pulse, it stays latched, so a timeout can never be lost
/// if later pulses are gated or delayed — only detected late.
class PrescaledCounter {
 public:
  /// budget in clock cycles; step = prescaler step. With a prescaler the
  /// counter is phase-misaligned with the transaction, so the limit is
  /// chosen conservatively (floor(budget/step) + 1, at least 2) so that
  /// a timeout can never fire BEFORE the budget elapsed — only up to one
  /// prescaler period late, which is exactly the area/latency trade-off
  /// of Fig. 8.
  void arm(std::uint32_t budget_cycles, std::uint32_t step, bool sticky) {
    if (step <= 1) {
      limit_ = budget_cycles ? budget_cycles : 1;
    } else {
      limit_ = budget_cycles / step + 1;
      if (limit_ < 2) limit_ = 2;
    }
    value_ = 0;
    sticky_enabled_ = sticky;
    sticky_ = false;
    running_ = true;
  }

  /// Advances on a prescaler pulse. Returns true if the budget expired.
  bool pulse() {
    if (!running_) return false;
    ++value_;
    // Near-timeout (one pulse from the limit) latches the sticky bit so
    // the condition survives even if later pulses are gated or delayed
    // (it does not fire early — it guarantees the expiry is not lost).
    if (sticky_enabled_ && value_ + 1 >= limit_) sticky_ = true;
    return expired();
  }

  bool expired() const { return running_ && value_ >= limit_; }

  void stop() { running_ = false; }
  bool running() const { return running_; }
  std::uint32_t value() const { return value_; }
  std::uint32_t limit() const { return limit_; }
  bool sticky() const { return sticky_; }

  template <typename V>
  void visit_fields(V& v) {
    visit(v, value_);
    visit(v, limit_);
    visit(v, running_);
    visit(v, sticky_enabled_);
    visit(v, sticky_);
  }

 private:
  std::uint32_t value_ = 0;
  std::uint32_t limit_ = 0;
  bool running_ = false;
  bool sticky_enabled_ = false;
  bool sticky_ = false;
};

}  // namespace tmu
