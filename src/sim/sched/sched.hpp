#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/context.hpp"
#include "sim/sched/profiler.hpp"

namespace sim {
class Module;
class StateVisitor;
}

namespace sim::sched {

/// How Simulator::settle() reaches the combinational fixpoint.
enum class SchedPolicy {
  /// Repeat full passes over every registered module until no wire
  /// changes (the original kernel). Retained for lockstep cross-checking
  /// against the event-driven scheduler and as the bring-up fallback.
  kFullSweep,
  /// Drain a dirty-set worklist: a value-changing wire write enqueues
  /// only that wire's reader modules, so settle cost is proportional to
  /// activity (toggled wires) instead of netlist size.
  kEventDriven,
};

inline const char* to_string(SchedPolicy p) {
  return p == SchedPolicy::kFullSweep ? "full_sweep" : "event_driven";
}

/// Scheduler observability counters (event-driven mode). Eval side
/// only: tick-input declarations and tick wakes are not counted.
struct SchedStats {
  std::uint64_t module_evals = 0;        ///< eval() calls run by drains
  std::uint64_t drains = 0;              ///< drains that evaluated >=1 module
  std::uint64_t wire_writes = 0;         ///< value-changing writes observed
  std::uint64_t wakeups = 0;             ///< modules enqueued by wire writes
  std::uint64_t full_invalidations = 0;  ///< mark_all_dirty() calls
  std::size_t wires = 0;                 ///< wires with >=1 declared eval reader
  std::size_t edges = 0;                 ///< declared wire→eval-reader edges
};

/// Event-driven settle scheduler for one Simulator.
///
/// Declared sensitivity: register_module() asks each combinational
/// module for the wires its eval() may read (Module::visit_inputs) and
/// appends the module to each wire's fan-out list, so fan-out lists hold
/// readers in registration order — the order the full sweep evaluates
/// them in. A declared wire's embedded slot (ChangeSink::on_wire_write)
/// is tagged with this scheduler's instance tag and its dense id, so a
/// value-changing write indexes its fan-out directly and wakes exactly
/// the declared readers. The fan-out is a pure function of the netlist
/// and its registration order; nothing is learned at run time.
///
/// The kernel installs the scheduler as its thread's change sink during
/// drains and tick phases. A change that names no wire and no module
/// (a free notify_state_change() then) is only flagged (unattributed());
/// the kernel falls back to mark_all_dirty() on the next settle.
///
/// Tick gating: the edge ticks the awake set, a bitset over registration
/// indices walked in registration order, and nothing else. A module whose
/// tick() reports idle (Module::set_tick_idle) leaves the set at the end
/// of the edge and sleeps — the kernel skips its tick() and its post-edge
/// query. Its declared tick inputs form a second fan-out beside the eval
/// one; a value change on one, a notification, Module::wake() or
/// wake_all() puts it back, after catch_up() fast-forwarded the skipped
/// ticks (Module::skip_ticks). Skipped ticks are counted against the
/// kernel's cycle counter and the tick loop's cursor, so a module woken
/// during the tick phase by a module later in registration order is
/// credited with the idle tick it missed this cycle, and one woken by an
/// earlier module still ticks this cycle. Non-sequential modules
/// (Module::is_sequential) are never in the set and never gated; each
/// one's edge report is read right after its owner's — the nearest
/// sequential module it was registered under. Nothing about sleep is
/// serialized.
class EventScheduler final : public ChangeSink,
                             public SimContext::DirtySink {
 public:
  /// No module: the owner of a module registered with no parent, and the
  /// end of an awake-set walk.
  static constexpr std::uint32_t kNoIndex = ~std::uint32_t{0};

  /// `cycle` is the owning kernel's cycle counter: the number of edges
  /// every awake module has ticked outside the tick phase.
  EventScheduler(SimContext& ctx, const std::uint64_t& cycle);
  ~EventScheduler();

  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  /// Registers a module, builds the eval and tick fan-out edges of its
  /// declared inputs in one visit, and marks it dirty. Returns false (and
  /// does nothing) when `m` is already registered here. Registration
  /// order is the drain's tie-break order, mirroring the full sweep; a
  /// module's index is its registration position. A sequential module
  /// joins the awake set. A non-sequential one reports its edges after
  /// `owner`'s: the index of the nearest sequential module it was
  /// registered under, or kNoIndex.
  bool register_module(Module& m, std::uint32_t owner);

  /// Enqueues every combinational module (resets, external writes —
  /// anything that can change state behind the wires' backs and can't
  /// name the affected modules).
  void mark_all_dirty();

  bool has_dirty() const { return head_ != queue_.size(); }

  /// Changes the worklist does not carry, since the last
  /// clear_changes(): a free notify_state_change() while this scheduler
  /// was the change sink (unattributed), and any module notification
  /// (notified; the full sweep, which drains no worklist, re-settles).
  bool unattributed() const { return unattributed_; }
  bool notified() const { return notified_; }
  void clear_changes() { unattributed_ = notified_ = false; }

  /// Drains the worklist to quiescence; returns the number of module
  /// evals run. Eval budget mirrors the full sweep's worst case
  /// (max_delta_iterations passes over the whole netlist); on exhaustion
  /// throws ConvergenceError naming the modules still dirty.
  std::size_t drain(int max_delta_iterations);

  const SchedStats& stats() const { return stats_; }

  // ---- Tick gating (the kernel's event-driven clock edge) ----

  /// The edge's tick phase, with this scheduler as the change sink:
  /// ticks every module in the awake set, in registration order. A
  /// module woken during the phase ticks at this edge when it comes
  /// later in registration order than the module ticking now. A module
  /// reporting idle dozes until end_edge(), unless woken meanwhile.
  void tick_awake();
  /// After the kernel advanced its cycle: enqueues each module of the
  /// awake set whose edge report is an eval-relevant change, with its
  /// non-sequential dependents' reports read right after its own, and
  /// puts the dozing modules to sleep from this cycle on.
  void end_edge();
  /// Whether an edge would tick nothing and drain nothing: the awake set
  /// and the worklist are both empty.
  bool quiescent() const {
    return asleep_count_ == sequential_count_ && !has_dirty();
  }
  /// Brings every sleeper's skipped ticks up to date; they stay asleep.
  void catch_up_all();
  /// Catches up and wakes every sleeper (the kernel's invalidate-all
  /// paths: reset, restore, ambient writes, unattributed changes,
  /// invalidate_settle()).
  void wake_all();

  /// Per-module profiling (default on): eval counts, wake causes and
  /// dirty-set depth. One array index per enqueue — cheap enough to
  /// leave on; turn off to measure the floor.
  void set_profiling(bool on) { profiling_ = on; }
  bool profiling() const { return profiling_; }

  /// A coherent copy of the per-module profile (registration order)
  /// and the dirty-depth histogram accumulated so far.
  SchedProfile profile() const;

  /// Checkpoint serde (sim/state.hpp): the pending worklist and every
  /// run-time counter, so a restored scheduler continues with the exact
  /// counters and wake behavior the captured one would have had. The
  /// fan-out is not stored: the restoring simulator's add() calls
  /// rebuilt it from the same netlist. Load requires the restoring
  /// scheduler to hold the same module registry (same netlist,
  /// registered in the same order).
  void visit_checkpoint(StateVisitor& v);

 private:
  class FanoutBuilder;

  void on_wire_write(std::uint64_t& slot) override;
  void on_unattributed_change() override { unattributed_ = true; }
  void on_module_notified(std::uint32_t idx) override;
  void on_module_woken(std::uint32_t idx) override { wake(idx); }

  /// Whether `slot` names a wire in this scheduler's fan-out table.
  bool owns(std::uint64_t slot) const;
  /// The wire's fan-out entry, created on its first declaration here.
  struct Fanout;
  Fanout& fanout_of(std::uint64_t& slot);
  void add_edge(std::uint64_t& slot, std::uint32_t reader);
  void add_tick_edge(std::uint64_t& slot, std::uint32_t reader);
  void enqueue(std::uint32_t idx, WakeCause cause);
  /// The post-edge invalidation of one module: enqueued when its edge
  /// report says the edge touched eval-relevant state.
  void report(std::uint32_t idx);
  /// The first member of the awake set at or after `idx`, or kNoIndex.
  /// Re-reads the set, so a walk sees modules woken behind its cursor.
  std::uint32_t next_awake(std::uint32_t idx) const;
  void catch_up(std::uint32_t idx);
  void wake(std::uint32_t idx);
  [[noreturn]] void throw_divergence();

  SimContext& ctx_;
  const std::uint64_t tag_;  ///< this scheduler's wire-slot owner tag

  std::vector<Module*> modules_;
  /// Registration-time duplicate check only: bound modules name
  /// themselves by index (Module::bind_context).
  std::unordered_map<const Module*, std::uint32_t> index_of_;
  std::vector<char> combinational_;

  /// Declared readers of one wire: eval readers, in registration order,
  /// are enqueued on a change; tick readers (a list in tick_edges_,
  /// newest first — wake order is immaterial) are woken.
  static constexpr std::uint32_t kNoEdge = ~std::uint32_t{0};
  struct Fanout {
    std::vector<std::uint32_t> eval;
    std::uint32_t tick_head = kNoEdge;
  };
  struct TickEdge {
    std::uint32_t reader;
    std::uint32_t next;
  };
  std::vector<Fanout> fanout_;  ///< [wire id]
  std::vector<TickEdge> tick_edges_;

  std::vector<char> dirty_;
  std::vector<std::uint32_t> queue_;  ///< FIFO worklist
  std::size_t head_ = 0;

  bool unattributed_ = false;
  bool notified_ = false;
  SchedStats stats_;

  // Tick gating. A sequential module is awake, drowsy (reported idle
  // this tick phase; asleep from end_edge() on) or asleep since
  // slept_at_ (the first edge it skipped); awake_ holds a bit for each
  // awake or drowsy one. A non-sequential module stays kAwake outside
  // the set, which makes every wake a no-op for it. dependents_[i] lists
  // the non-sequential modules owned by module i, in registration order.
  // cursor_ is the module ticking now during the tick phase, 0
  // otherwise: a sleeper below it has been passed this edge.
  enum Gate : char { kAwake, kDrowsy, kAsleep };
  const std::uint64_t& cycle_;
  std::vector<char> gate_;
  std::vector<std::uint64_t> slept_at_;
  std::vector<std::uint64_t> awake_;
  std::vector<std::vector<std::uint32_t>> dependents_;
  std::uint32_t cursor_ = 0;
  std::uint32_t asleep_count_ = 0;
  std::uint32_t sequential_count_ = 0;

  // Profiler state: one slot per module, registration order. An enqueue
  // attributes its cause to the woken module; evals are attributed in
  // drain(). Kept as parallel flat arrays (not an array of structs) so
  // the common case — bumping one counter — touches one cache line per
  // kind.
  bool profiling_ = true;
  std::vector<std::uint64_t> prof_evals_;
  std::vector<std::uint64_t> prof_wire_wakes_;
  std::vector<std::uint64_t> prof_tick_wakes_;
  std::vector<std::uint64_t> prof_notify_wakes_;
  std::vector<std::uint64_t> prof_full_wakes_;
  Histogram depth_hist_;  ///< worklist length at each non-empty drain
};

}  // namespace sim::sched
