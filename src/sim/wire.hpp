#pragma once

#include <cstdint>
#include <utility>

#include "sim/context.hpp"

namespace sim {

struct StateAccess;
class InputVisitor;

/// A combinational signal. Modules read inputs and write outputs through
/// wires during eval(); the kernel repeats eval passes until no wire
/// changes. T must be equality-comparable and cheap to copy.
///
/// Change tracking (see sim/context.hpp): a write that changes the value
/// goes to the change sink of the simulator resetting, settling or
/// ticking on this thread, or bumps the thread's ambient epoch when no
/// simulator is.
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

  /// Writes v; reports a change iff the value differs.
  void write(const T& v) {
    if (!(v == value_)) {
      value_ = v;
      changed();
    }
  }

  /// Sets the value from reset paths. Like write(), reports only an
  /// actual change: reset storms that force already-default values must
  /// not invalidate unrelated simulators' settled caches (the kernel
  /// invalidates its own cache explicitly on reset(), so a skipped
  /// report never hides a reset from the owning simulator).
  void force(T v) {
    if (!(v == value_)) {
      value_ = std::move(v);
      changed();
    }
  }

 private:
  // Snapshot restore writes the value cell directly (sim/state.hpp): a
  // restore re-establishes settled-state bookkeeping explicitly and must
  // not register as wire activity.
  friend struct StateAccess;
  // Sensitivity declarations hand the slot to the registering scheduler.
  friend class InputVisitor;

  void changed() {
    if (detail::t_change_sink != nullptr) {
      detail::t_change_sink->on_wire_write(sched_slot_);
    } else {
      ++detail::t_ambient_epoch;
    }
  }

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

  /// The declared wire's scheduling slot (ChangeSink::on_wire_write).
  virtual void on_input(std::uint64_t& slot) = 0;
  virtual void on_tick_input(std::uint64_t& slot) = 0;
};

}  // namespace sim
