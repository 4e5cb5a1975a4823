#pragma once

#include <cstdint>

namespace sim {

/// Where value changes go while a simulator resets, settles or ticks:
/// its event scheduler during event-driven drains and tick phases, a
/// write counter of its own during resets and full sweeps. Outside those
/// phases no sink is installed, and a change bumps the thread's ambient
/// epoch instead, which invalidates every simulator on the thread.
///
/// Contract: coexisting simulators' netlists must be wire-disjoint. A
/// wire written by simulator A's modules reaches only A's sink, so a
/// simulator B reading it would not notice. Couple simulators through
/// testbench code instead (on_cycle callbacks included): its writes are
/// ambient.
class ChangeSink {
 public:
  /// A write changed a wire's value. `slot` is the wire's scheduling
  /// cell: the upper 32 bits carry the instance tag of the scheduler
  /// that registered a reader of the wire, the lower 32 bits the wire's
  /// dense id in that scheduler's fan-out table.
  virtual void on_wire_write(std::uint64_t& slot) = 0;
  /// A free notify_state_change(): names neither a wire nor a module.
  virtual void on_unattributed_change() = 0;

 protected:
  ~ChangeSink() = default;
};

namespace detail {

/// The installed sink (thread_local: simulators on worker threads share
/// nothing), or nullptr outside every simulator.
inline thread_local ChangeSink* t_change_sink = nullptr;
inline thread_local std::uint64_t t_ambient_epoch = 0;

/// RAII installation of a change sink. Nestable (reset() settles) and
/// exception-safe, so a ConvergenceError does not leave a dangling sink.
class ChangeSinkScope {
 public:
  explicit ChangeSinkScope(ChangeSink& s) : prev_(t_change_sink) {
    t_change_sink = &s;
  }
  ~ChangeSinkScope() { t_change_sink = prev_; }

  ChangeSinkScope(const ChangeSinkScope&) = delete;
  ChangeSinkScope& operator=(const ChangeSinkScope&) = delete;

 private:
  ChangeSink* prev_;
};

}  // namespace detail

/// Changes made on this thread outside every simulator. Each Simulator
/// keys its settled cache on it, so the ambient epoch is the one
/// cross-simulator signal.
inline std::uint64_t ambient_epoch() { return detail::t_ambient_epoch; }

/// Marks eval-relevant state as changed from non-Module code. Inside a
/// simulator's reset, settle or tick it marks that simulator for a full
/// re-settle; anywhere else it bumps the ambient epoch. Prefer
/// Module::notify_state_change() inside modules: it is module-precise.
inline void notify_state_change() {
  if (detail::t_change_sink != nullptr) {
    detail::t_change_sink->on_unattributed_change();
  } else {
    ++detail::t_ambient_epoch;
  }
}

/// A module's binding to its simulator (Module::bind_context, held
/// weakly): module notifications and wakes reach the simulator's event
/// scheduler through it, from wherever they are made. A module names
/// itself by its registration index in that simulator, fixed when
/// Simulator::add() bound it.
class SimContext {
 public:
  /// The owning simulator's event scheduler: a notification marks
  /// exactly the notifying module dirty, and notifications and wakes
  /// wake a module that sleeps through clock edges.
  class DirtySink {
   public:
    virtual void on_module_notified(std::uint32_t idx) = 0;
    virtual void on_module_woken(std::uint32_t idx) = 0;

   protected:
    ~DirtySink() = default;
  };

  /// Precise notification from a bound module (Module::notify_state_change).
  void notify_module(std::uint32_t idx) {
    if (sink_ != nullptr) sink_->on_module_notified(idx);
  }

  /// Tick-gating wake from a bound module (Module::wake): catches the
  /// module up and keeps it ticking. Eval state is untouched.
  void wake_module(std::uint32_t idx) {
    if (sink_ != nullptr) sink_->on_module_woken(idx);
  }

  /// Attaches / detaches the scheduler (nullptr to detach). The sink is
  /// held raw: the Simulator owns both this context's shared_ptr and the
  /// scheduler, and the scheduler detaches itself on destruction.
  void attach_dirty_sink(DirtySink* sink) { sink_ = sink; }

 private:
  DirtySink* sink_ = nullptr;
};

}  // namespace sim
