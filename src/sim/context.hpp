#pragma once

#include <cstdint>

namespace sim {

class Module;

/// Per-netlist change-epoch context. Every Wire write that changes a
/// value (and every notify_state_change()) bumps the epoch of exactly one
/// context; a Simulator keys its settled-state cache on its own context,
/// so independent simulators — on the same thread or on different
/// threads — never invalidate each other's caches.
///
/// Contract: coexisting simulators' netlists must be wire-disjoint. A
/// wire written by simulator A's modules during eval/tick bumps only A's
/// epoch, so a simulator B reading that wire would not notice the change
/// (under the old global epoch it did). Cross-simulator coupling must go
/// through testbench code instead — writes outside any simulator scope
/// (including on_cycle callbacks) land on the ambient context, which
/// conservatively invalidates every simulator on the thread.
class SimContext {
 public:
  /// Kernel-internal attachment point for the owning simulator's event
  /// scheduler: module notifications routed through notify_module() can
  /// then mark exactly the notifying module dirty instead of forcing a
  /// full re-settle, and notifications and wake_module() calls wake a
  /// module that sleeps through clock edges.
  class DirtySink {
   public:
    virtual void on_module_notified(const Module& m) = 0;
    virtual void on_module_woken(const Module& m) = 0;

   protected:
    ~DirtySink() = default;
  };

  std::uint64_t epoch() const { return epoch_; }
  void bump() { ++epoch_; }

  /// Precise notification from a bound module (Module::notify_state_change):
  /// bumps the epoch and, when a scheduler is attached, marks the module
  /// dirty so an event-driven settle re-evaluates only its cone.
  void notify_module(const Module& m) {
    ++epoch_;
    if (sink_ != nullptr) sink_->on_module_notified(m);
  }

  /// Tick-gating wake from a bound module (Module::wake): catches the
  /// module up and keeps it ticking. No epoch bump: eval state is
  /// untouched.
  void wake_module(const Module& m) {
    if (sink_ != nullptr) sink_->on_module_woken(m);
  }

  /// Attaches / detaches the scheduler (nullptr to detach). The sink is
  /// held raw: the Simulator owns both this context's shared_ptr and the
  /// scheduler, and the scheduler detaches itself on destruction.
  void attach_dirty_sink(DirtySink* sink) { sink_ = sink; }

 private:
  std::uint64_t epoch_ = 0;
  DirtySink* sink_ = nullptr;
};

namespace detail {

/// Ambient context for wire writes performed outside any simulator scope
/// (testbench code poking wires between cycles). thread_local, so worker
/// threads running independent campaigns share nothing. Every Simulator
/// on a thread treats the ambient epoch as part of its cache key:
/// ambient writes conservatively invalidate all of them.
inline thread_local SimContext t_ambient_ctx{};

/// The simulator context currently evaluating on this thread, or nullptr
/// outside settle()/step()/reset().
inline thread_local SimContext* t_active_ctx = nullptr;

inline SimContext& current_ctx() {
  return t_active_ctx != nullptr ? *t_active_ctx : t_ambient_ctx;
}

inline void bump_change_epoch() { current_ctx().bump(); }

/// RAII scope: attribute wire changes on this thread to `ctx`. Nestable
/// (settle() inside step()); exception-safe so a ConvergenceError does
/// not leave a dangling active context.
class ActiveContextScope {
 public:
  explicit ActiveContextScope(SimContext& ctx) : prev_(t_active_ctx) {
    t_active_ctx = &ctx;
  }
  ~ActiveContextScope() { t_active_ctx = prev_; }

  ActiveContextScope(const ActiveContextScope&) = delete;
  ActiveContextScope& operator=(const ActiveContextScope&) = delete;

 private:
  SimContext* prev_;
};

}  // namespace detail

/// Epoch of this thread's ambient context (writes outside any simulator).
inline std::uint64_t ambient_epoch() { return detail::t_ambient_ctx.epoch(); }

/// Epoch of the context wire writes are currently attributed to: the
/// active simulator's during settle/step, the thread-ambient otherwise.
inline std::uint64_t change_epoch() { return detail::current_ctx().epoch(); }

/// Marks eval-relevant state as changed outside tick()/reset() from
/// non-Module code. Bumps the currently attributed context; prefer
/// Module::notify_state_change() inside modules — it targets the owning
/// simulator precisely instead of invalidating every simulator on the
/// thread.
inline void notify_state_change() { detail::bump_change_epoch(); }

}  // namespace sim
