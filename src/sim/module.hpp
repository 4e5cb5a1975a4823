#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "sim/context.hpp"

namespace sim {

class InputVisitor;
class StateVisitor;

/// Base class for all cycle-level hardware models.
///
/// The kernel drives each cycle in two phases:
///   1. eval()  — combinational: compute outputs from register state and
///                input wires. Must be idempotent for fixed inputs; it is
///                called repeatedly until all wires settle.
///   2. tick()  — sequential: sample the settled wires and update
///                internal registers (the clock edge).
/// reset() returns all registers to their power-on state.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  virtual void eval() {}
  virtual void tick() {}
  virtual void reset() {}

  /// Whether eval() can drive wires. Pure sequential sinks (IRQ
  /// controllers, CPU stubs, monitors/tracers that only sample settled
  /// wires in tick()) return false so both settle kernels skip them
  /// entirely. Only override to false when eval() is NOT overridden —
  /// a combinational output behind a false here would never propagate.
  virtual bool is_combinational() const { return true; }

  /// Whether the module has clocked state of its own. A compound
  /// module's shard whose registers all live in its parent (the sharded
  /// crossbar's MgrShard/SubShard: the facade's tick() commits them and
  /// sets each shard's edge report) returns false. Under the
  /// event-driven policy the kernel then never ticks it and never gates
  /// it, and reads its edge report right after its parent's, at the
  /// edges the parent ticks at; a sleeping parent has changed nothing.
  /// A non-sequential module added on its own, with no parent, has no
  /// edge report: no edge can change what its eval() reads. The full
  /// sweep still calls its tick() every cycle, so a tick() that changed
  /// model state would make the two policies diverge.
  virtual bool is_sequential() const { return true; }

  /// Compound modules — a facade that decomposes its work across
  /// internal shard modules (e.g. the sharded AXI crossbar) — override
  /// this to expose the shards. Simulator::add() visits them recursively
  /// and registers each alongside the parent, so user code keeps adding
  /// the facade alone. The parent is responsible for the shards'
  /// lifetime; visiting order is the registration (tie-break) order.
  virtual void visit_submodules(const std::function<void(Module&)>& visit) {
    (void)visit;
  }

  /// Sensitivity declaration (sim/wire.hpp): call `in.input(w)` for every
  /// wire eval() may read, on any path. A superset is safe — an extra
  /// wire only costs an eval when it changes. A missing wire is a missed
  /// wake: the module keeps a stale output until something else wakes
  /// it, which the event-vs-full-sweep lockstep gates report as a
  /// divergence. Modules whose eval() reads no wire (reads only in
  /// tick(), or drives outputs from registers alone) declare none.
  ///
  /// Modules that opt into tick gating (set_tick_idle) also call
  /// `in.tick_input(w)` for every wire tick() may read, on any path: a
  /// value change on one wakes the sleeping module. The same superset
  /// rule applies — an extra wire costs a wake, a missing one lets the
  /// module sleep through an input change. Called once, when
  /// Simulator::add() registers the module; `input()` declarations of a
  /// non-combinational module are ignored.
  virtual void visit_inputs(InputVisitor& in) { (void)in; }

  /// The edge report, read by the event-driven scheduler right after
  /// every tick() (a non-sequential module's right after its parent's):
  /// may this clock edge have changed state that eval() depends on? It
  /// returns tick_evt_, which starts true: the module is
  /// re-evaluated after every edge, exactly like the full sweep. A module
  /// that reports less sets tick_evt_ in tick(), on every path, and false
  /// only when the edge provably left every eval-relevant register
  /// untouched; its post-edge re-eval is then skipped, which is what
  /// makes idle-heavy netlists settle in O(activity). Wire writes during
  /// the tick phase wake their readers regardless, so the report covers
  /// non-wire register state only.
  bool tick_changed_eval_state() const { return tick_evt_; }

  /// Tick-gating catch-up: fast-forwards `n` (>= 1) skipped ticks in
  /// O(1). The kernel calls it on a sleeping module (see set_tick_idle)
  /// before anything can observe the skipped cycles: before the module's
  /// next tick() or eval(), before on_cycle callbacks and run_until
  /// predicates, and before a Simulator call returns. It must leave
  /// exactly the state that `n` idle ticks with unchanged inputs leave
  /// (advance the free-running counters) and must not write wires or
  /// notify. `n` may span a whole Simulator::run(n): once every module
  /// sleeps, the kernel jumps to the end of the run and catches every
  /// sleeper up in one call, so `n` is unbounded and a loop over it is
  /// not O(1). Only modules that report idle are ever called; the edge
  /// report of a sleeper is already false.
  virtual void skip_ticks(std::uint64_t n) { (void)n; }

  /// The idle report of the last tick() (set_tick_idle).
  bool tick_idle() const { return tick_idle_; }

  /// State-serde hook (sim/state.hpp): list every register, queue and
  /// counter that survives a cycle boundary, once, in a fixed order —
  /// the same walk serializes (save visitor) and restores (load
  /// visitor), so a round-trip is exact by construction. Stateless
  /// modules keep the empty default. Output wires owned by the module
  /// are visited here too when they are not part of a Soc link (the
  /// snapshot layer walks links separately).
  virtual void visit_state(StateVisitor& v) { (void)v; }

  const std::string& name() const { return name_; }

  /// Binds the module to a simulator's context (called by
  /// Simulator::add) under its registration index there, which its
  /// notifications and wakes carry, so the scheduler never looks it up.
  /// Held weakly: a module outliving its simulator falls back to the
  /// free notify_state_change() instead of dangling, and destruction
  /// order between module and simulator is unconstrained.
  void bind_context(std::weak_ptr<SimContext> ctx, std::uint32_t index) {
    ctx_ = std::move(ctx);
    ctx_index_ = index;
  }
  /// The bound simulator's context, or nullptr if unbound / the
  /// simulator is gone.
  SimContext* context() const { return ctx_.lock().get(); }

 protected:
  /// Marks eval-relevant module state as changed outside tick()/reset()
  /// — e.g. a testbench calling arm()/set_*() between cycles. Exactly
  /// the bound simulator's settled state goes stale: the event-driven
  /// scheduler marks this module dirty, so the next settle re-evaluates
  /// only its cone, and wakes it if it sleeps through clock edges
  /// (set_tick_idle); the full sweep re-settles. Falls back to the free
  /// sim::notify_state_change() when unbound. Wire writes are tracked
  /// automatically; this is only for state the wires can't see.
  void notify_state_change() {
    if (auto ctx = ctx_.lock()) {
      ctx->notify_module(ctx_index_);
    } else {
      sim::notify_state_change();
    }
  }

  /// Tick gating (event-driven policy only; the full sweep ticks every
  /// module every cycle). tick() calls this with true when its NEXT tick
  /// would change nothing but free-running time — a private cycle
  /// counter, a prescaler phase — given unchanged tick inputs and no
  /// notification, and would report no eval-relevant change (tick_evt_
  /// false). The kernel then skips the module's tick() and post-edge
  /// query until a declared tick input (visit_inputs) changes value, the
  /// module is notified or woken, or the kernel invalidates everything
  /// (reset, restore, ambient testbench write, invalidate_settle()). On wake it first calls skip_ticks() with the
  /// number of ticks skipped. A module that sets the report must set it
  /// on every tick() path; modules that never set it tick every cycle.
  void set_tick_idle(bool idle) { tick_idle_ = idle; }

  /// Wakes this module if it sleeps, after catching up its skipped ticks
  /// (no eval). Mutators call it first when they change state the
  /// catch-up depends on, or read free-running time, and may be called
  /// from another module's tick() while this one sleeps —
  /// notify_state_change() also wakes, but only after the mutation.
  /// Between Simulator calls every sleeper is already caught up.
  void wake() {
    if (auto ctx = ctx_.lock()) ctx->wake_module(ctx_index_);
  }

 private:
  std::string name_;
  std::weak_ptr<SimContext> ctx_;
  std::uint32_t ctx_index_ = 0;  ///< registration index under ctx_
  bool tick_idle_ = false;

 protected:
  /// The edge report (tick_changed_eval_state()), declared beside
  /// tick_idle_ to share its padding. Models that snapshot it visit it in
  /// visit_state().
  bool tick_evt_ = true;
};

}  // namespace sim
