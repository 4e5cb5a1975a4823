#pragma once

#include <cstdint>
#include <utility>

#include "sim/context.hpp"
#include "sim/sched/trace.hpp"

namespace sim {

struct StateAccess;
class InputVisitor;

/// A combinational signal. Modules read inputs and write outputs through
/// wires during eval(); the kernel repeats eval passes until no wire
/// changes. T must be equality-comparable and cheap to copy.
///
/// Change tracking is per-context (see sim/context.hpp): a write that
/// changes the value bumps the epoch of the simulator currently
/// evaluating on this thread, or the thread-ambient context when no
/// simulator is active.
///
/// Scheduling identity: an event-driven scheduler tags the wire's slot
/// `sched_slot_` when a registered module declares it as an input
/// (Module::visit_inputs), and a value-changing write under that
/// scheduler wakes the declared readers: eval readers are re-evaluated,
/// sleeping tick readers tick again. A read is a plain load. Wires
/// are non-copyable so the slot can never be duplicated.
template <typename T>
class Wire {
 public:
  Wire() = default;
  explicit Wire(T init) : value_(std::move(init)) {}

  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  const T& read() const { return value_; }

  /// Writes v; bumps the attributed change epoch iff the value differs.
  void write(const T& v) {
    if (!(v == value_)) {
      value_ = v;
      detail::bump_change_epoch();
      if (detail::t_wire_write_trace != nullptr) {
        detail::t_wire_write_trace->on_wire_write(sched_slot_);
      }
    }
  }

  /// Sets the value from reset paths. Like write(), bumps the epoch only
  /// on an actual change: reset storms that force already-default values
  /// must not invalidate unrelated simulators' settled caches (the kernel
  /// invalidates its own cache explicitly on reset(), so skipping the
  /// bump never hides a reset from the owning simulator).
  void force(T v) {
    if (!(v == value_)) {
      value_ = std::move(v);
      detail::bump_change_epoch();
      if (detail::t_wire_write_trace != nullptr) {
        detail::t_wire_write_trace->on_wire_write(sched_slot_);
      }
    }
  }

 private:
  // Snapshot restore writes the value cell directly (sim/state.hpp): a
  // restore re-establishes settled-state bookkeeping explicitly and must
  // not register as wire activity.
  friend struct StateAccess;
  // Sensitivity declarations hand the slot to the registering scheduler.
  friend class InputVisitor;

  T value_{};
  std::uint64_t sched_slot_ = 0;
};

/// The sensitivity declaration a module makes in Module::visit_inputs():
/// `in.input(w)` for every wire its eval() may read, and
/// `in.tick_input(w)` for every wire its tick() may read when the module
/// opts into tick gating. The event-driven scheduler builds each wire's
/// eval and tick fan-outs from these declarations once, when the module
/// is added, in registration order.
class InputVisitor {
 public:
  template <typename T>
  void input(Wire<T>& w) {
    on_input(w.sched_slot_);
  }
  template <typename T>
  void tick_input(Wire<T>& w) {
    on_tick_input(w.sched_slot_);
  }

 protected:
  ~InputVisitor() = default;

  /// The declared wire's scheduling slot (sim/sched/trace.hpp encoding).
  virtual void on_input(std::uint64_t& slot) = 0;
  virtual void on_tick_input(std::uint64_t& slot) = 0;
};

}  // namespace sim
