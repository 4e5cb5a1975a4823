#pragma once

#include <cstdint>

namespace sim::detail {

/// Wire-write hook. A scheduler installs itself thread_locally
/// (WireWriteTraceScope) only while its simulator evaluates or ticks
/// modules, so untraced simulation pays exactly one predictable branch
/// per value-changing write. Reads are never traced: fan-out comes from
/// declared inputs (Module::visit_inputs).
///
/// The `slot` passed to the callback is the wire's embedded identity
/// cell (Wire::sched_slot_): the upper 32 bits carry the instance tag of
/// the scheduler that registered a reader of the wire, the lower 32 bits
/// the wire's dense id in that scheduler's fan-out table. A slot whose
/// tag differs from the active scheduler's (zero-initialised wires,
/// wires nobody reads, wires declared under another simulator) has no
/// declared reader there.
class WireTrace {
 public:
  /// A write changed the wire's value (called after the change-epoch
  /// bump, still under the writer's ActiveContextScope).
  virtual void on_wire_write(std::uint64_t& slot) = 0;

 protected:
  ~WireTrace() = default;
};

/// The trace active on this thread, or nullptr when no scheduler is
/// driving modules (full-sweep settles, testbench code).
inline thread_local WireTrace* t_wire_write_trace = nullptr;

/// RAII installation of the write trace (drain and tick scopes).
/// Nestable and exception-safe, mirroring ActiveContextScope: a
/// ConvergenceError thrown mid-drain must not leave a dangling trace.
class WireWriteTraceScope {
 public:
  explicit WireWriteTraceScope(WireTrace& t) : prev_(t_wire_write_trace) {
    t_wire_write_trace = &t;
  }
  ~WireWriteTraceScope() { t_wire_write_trace = prev_; }

  WireWriteTraceScope(const WireWriteTraceScope&) = delete;
  WireWriteTraceScope& operator=(const WireWriteTraceScope&) = delete;

 private:
  WireTrace* prev_;
};

}  // namespace sim::detail
