#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/context.hpp"
#include "sim/module.hpp"
#include "sim/sched/sched.hpp"

namespace sim {

/// Thrown when combinational evaluation fails to converge, which
/// indicates a (model) combinational loop. The message names the modules
/// still dirty in the final pass.
class ConvergenceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
/// Shared ConvergenceError message builder: names the still-dirty
/// modules (the full sweep's diagnostic pass / the event drain's
/// remaining worklist).
std::string divergence_message(const std::vector<const Module*>& dirty);
}  // namespace detail

/// Two-phase cycle-based simulation kernel.
///
/// Per cycle: settle combinational logic until no Wire changes (bounded
/// by kMaxDeltaIterations), then tick() every module once.
///
/// Settling follows the configured sched::SchedPolicy:
///  * kEventDriven (default) — drain a dirty-set worklist: after a clock
///    edge every combinational module is dirty, and from then on a
///    value-changing wire write wakes only that wire's declared readers
///    (Module::visit_inputs, collected once by add(); see
///    sim/sched/sched.hpp). Settle cost is proportional to activity.
///  * kFullSweep — repeat full eval passes over every module until no
///    wire changes (the original kernel), kept for lockstep
///    cross-checking and bring-up of exotic netlists.
///
/// Clock edges follow the same split. The full sweep ticks every module
/// every cycle. The event-driven policy gates tick() on activity: an
/// edge ticks only the scheduler's awake set. A module whose tick
/// reported idle (Module::set_tick_idle) sleeps, and the edge skips both
/// its tick() and its post-edge query until a declared tick input
/// changes, it is notified or woken, or the kernel invalidates
/// everything; a non-sequential module (Module::is_sequential) never
/// ticks. Skipped ticks are fast-forwarded (Module::skip_ticks) before
/// the module ticks or evaluates again, before on_cycle callbacks and
/// run_until predicates, and before any public call returns, so nothing
/// outside the kernel sees a lagging module. Once nothing is awake and
/// nothing is pending, run(n) jumps to the end of the run in O(1) (see
/// run()).
///
/// The kernel caches the settled state: settle() on a netlist that has
/// already converged — and untouched since, as this simulator's change
/// sinks and the thread's ambient epoch report — is a no-op. This makes
/// the leading settle in step()/run_until() free, so a full run performs
/// exactly one eval convergence per cycle (the post-edge settle).
///
/// While it resets, settles or ticks, a Simulator installs its own
/// change sink on its thread (sim/context.hpp), so independent instances
/// coexist without invalidating each other and independent campaigns
/// can run on separate threads (nothing is shared; the installed sink is
/// thread_local). A Simulator and its netlist must be driven from one
/// thread at a time, and coexisting simulators' netlists must be
/// wire-disjoint — couple them through testbench code (e.g. on_cycle
/// callbacks), whose writes invalidate every simulator on the thread.
class Simulator {
 public:
  static constexpr int kMaxDeltaIterations = 64;

  explicit Simulator(
      sched::SchedPolicy policy = sched::SchedPolicy::kEventDriven)
      : policy_(policy) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers a module (non-owning; the caller keeps ownership), binds
  /// it to this simulator's context and, for a
  /// combinational module, adds its declared inputs
  /// (Module::visit_inputs) to the scheduler's wire fan-out. Adding a
  /// module already registered here is a no-op. Adding it to a second
  /// simulator rebinds it there (latest wins, and its declared wires now
  /// wake readers in that simulator only). The context is held weakly on
  /// the module side, so destruction order between module and simulator
  /// is unconstrained — but the registry never self-cleans, so do not
  /// settle()/step() after a registered module has been destroyed.
  /// Compound modules (Module::visit_submodules) have their internal
  /// shards registered recursively, right after the facade itself.
  void add(Module& m) { add_under(m, sched::EventScheduler::kNoIndex); }

  /// Registers a callback run after every settled cycle (tracing, probes).
  void on_cycle(std::function<void(std::uint64_t)> cb) {
    cycle_callbacks_.push_back(std::move(cb));
  }

  /// The settle scheduling policy, fixed at construction.
  sched::SchedPolicy policy() const { return policy_; }

  /// Synchronously resets all modules and the cycle counter.
  void reset();

  /// Settles combinational logic without advancing the clock. No-op if
  /// the netlist is already settled and no wire changed since.
  void settle();

  /// Advances one clock cycle: settle, callbacks, then tick.
  void step();

  /// Runs n cycles. Under the event-driven policy, with no on_cycle
  /// callback, the run ends in one step as soon as an edge would do
  /// nothing: every sequential module sleeps, the worklist is empty and
  /// no invalidation is pending. The cycle counter then moves to the end
  /// of the run and every sleeper catches up once (Module::skip_ticks),
  /// which is exactly what the remaining idle edges would have done.
  /// step() and run_until() advance one edge at a time.
  void run(std::uint64_t n);

  /// Runs until pred() is true or the cycle budget is exhausted.
  /// Returns true if pred fired.
  bool run_until(const std::function<bool()>& pred, std::uint64_t max_cycles);

  std::uint64_t cycle() const { return cycle_; }

  /// Eval convergences since construction. Full sweep: one per full pass
  /// over the netlist (the historical meaning). Event-driven: one per
  /// worklist drain that evaluated at least one module — a coarse
  /// did-settle-do-work signal; see module_evals() for effort.
  std::uint64_t eval_passes() const { return eval_passes_; }

  /// Individual Module::eval() calls since construction (both policies) —
  /// the activity-proportional cost the event-driven scheduler minimises.
  std::uint64_t module_evals() const { return module_evals_; }

  /// Event-driven scheduler counters (declared wires and edges, writes,
  /// wakeups, drains).
  const sched::SchedStats& sched_stats() const { return sched_.stats(); }

  /// Per-module scheduler profile (eval counts, wake causes, whether
  /// the module sleeps through clock edges now, dirty-depth histogram).
  /// Event-driven mode only; empty counters and nothing asleep under
  /// kFullSweep.
  sched::SchedProfile sched_profile() const { return sched_.profile(); }

  /// Toggles the per-module profiler (default on). Off measures the
  /// scheduler's floor; the aggregate SchedStats stay counted.
  void set_sched_profiling(bool on) { sched_.set_profiling(on); }

  /// Discards the cached settled state; the next settle() re-evaluates.
  /// Needed only when module-internal state changes outside tick()/reset()
  /// (wire writes are tracked automatically).
  void invalidate_settle() { settled_ = false; }

  /// The context this simulator's modules are bound to (module
  /// notifications and wakes land here).
  SimContext& context() { return *ctx_; }
  const SimContext& context() const { return *ctx_; }

  /// Registered modules in registration order, compound modules'
  /// internal shards included right after their facade — the order the
  /// snapshot layer walks per-module state in.
  const std::vector<Module*>& modules() const { return modules_; }

  /// Checkpoint serde (sim/state.hpp), driven by the snapshot layer as
  /// the FIRST stop of the netlist walk: cycle/eval counters plus the
  /// scheduler checkpoint, and — on load — re-establishes the
  /// settled-state cache (the capture contract is a settled netlist;
  /// restoring wire values reports no change on purpose). The
  /// snapshot records the sched policy and load fails on a mismatch:
  /// worklist contents and eval counters are policy-dependent, so a
  /// cross-policy restore could not be exact.
  void visit_checkpoint(StateVisitor& v);

 private:
  /// add() under `owner`, the nearest sequential module registered above
  /// `m` (a non-sequential module reports its edges after its owner's).
  void add_under(Module& m, std::uint32_t owner) {
    const auto idx = static_cast<std::uint32_t>(modules_.size());
    if (!sched_.register_module(m, owner)) return;
    m.bind_context(ctx_, idx);
    modules_.push_back(&m);
    settled_ = false;
    const std::uint32_t sub_owner = m.is_sequential() ? idx : owner;
    m.visit_submodules([&](Module& sub) { add_under(sub, sub_owner); });
  }

  /// One clock cycle without the final catch-up: settle, callbacks, the
  /// (gated) tick phase, the post-edge settle.
  void advance();
  /// Whether advance() would only count the cycle (see run()).
  bool quiescent() const;
  /// settle() without the catch-up.
  void settle_now();
  bool needs_full_invalidation() const;
  void mark_settled();
  void settle_full_sweep();
  void settle_event_driven();
  [[noreturn]] void throw_full_sweep_divergence();

  std::vector<Module*> modules_;  ///< index = scheduler index
  std::vector<std::function<void(std::uint64_t)>> cycle_callbacks_;
  std::shared_ptr<SimContext> ctx_ = std::make_shared<SimContext>();
  std::uint64_t cycle_ = 0;
  // Declared after ctx_: destroyed first, so its dirty-sink detach in
  // ~EventScheduler always sees a live context. Counts sleepers' skipped
  // ticks against cycle_.
  sched::EventScheduler sched_{*ctx_, cycle_};
  const sched::SchedPolicy policy_;
  std::uint64_t eval_passes_ = 0;
  std::uint64_t module_evals_ = 0;
  std::uint64_t settled_ambient_epoch_ = 0;
  bool settled_ = false;

  /// The change sink for resets and full sweeps: a sweep pass converged
  /// when it counted no change.
  struct ChangeCount final : ChangeSink {
    void on_wire_write(std::uint64_t&) override { ++n; }
    void on_unattributed_change() override { ++n; }
    std::uint64_t n = 0;
  } changes_;
};

}  // namespace sim
