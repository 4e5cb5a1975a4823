#include "sim/kernel.hpp"

#include <string>

#include "sim/state.hpp"
#include "sim/wire.hpp"

namespace sim {

void Simulator::reset() {
  sched_.wake_all();  // before the cycle counter the sleepers count from
  detail::ChangeSinkScope sink(changes_);  // reset-path writes stay here
  for (Module* m : modules_) m->reset();
  cycle_ = 0;
  settled_ = false;  // reset() mutates register state behind the wires' backs
  settle_now();
}

void Simulator::settle() {
  settle_now();
  sched_.catch_up_all();
}

void Simulator::settle_now() {
  if (policy_ == sched::SchedPolicy::kEventDriven) {
    settle_event_driven();
  } else {
    settle_full_sweep();
  }
}

void Simulator::settle_full_sweep() {
  // Fast path: converged before, and since then no module notified and
  // the ambient epoch (external testbench writes) did not move. eval()
  // is idempotent by contract, so re-running it would change nothing;
  // skipping is exact.
  if (settled_ && !sched_.notified() &&
      ambient_epoch() == settled_ambient_epoch_) {
    return;
  }
  detail::ChangeSinkScope sink(changes_);
  for (int iter = 0; iter < kMaxDeltaIterations; ++iter) {
    const std::uint64_t before = changes_.n;
    for (Module* m : modules_) {
      if (m->is_combinational()) {
        m->eval();
        ++module_evals_;
      }
    }
    ++eval_passes_;
    if (changes_.n == before) {
      mark_settled();
      return;
    }
  }
  throw_full_sweep_divergence();
}

bool Simulator::needs_full_invalidation() const {
  // Reset, late add() or invalidate_settle(): register state may have
  // changed behind the wires' backs. Ambient writes can't
  // name the wires they touched, and unattributed changes can't name a
  // module.
  return !settled_ || ambient_epoch() != settled_ambient_epoch_ ||
         sched_.unattributed();
}

void Simulator::mark_settled() {
  settled_ = true;
  settled_ambient_epoch_ = ambient_epoch();
  sched_.clear_changes();
}

void Simulator::settle_event_driven() {
  if (needs_full_invalidation()) {
    // Conservatively re-evaluate every combinational module and wake
    // every module sleeping through clock edges.
    sched_.mark_all_dirty();
    sched_.wake_all();
  }
  // Anything else pending in the worklist arrived module-precise
  // (notify_state_change on a bound module), so a settle after e.g.
  // FaultInjector::arm() re-evaluates only that module's cone.
  if (sched_.has_dirty()) {
    const std::size_t evals = sched_.drain(kMaxDeltaIterations);
    module_evals_ += evals;
    if (evals > 0) ++eval_passes_;
  }
  mark_settled();
}

namespace detail {
std::string divergence_message(const std::vector<const Module*>& dirty) {
  std::string msg =
      "combinational logic failed to settle; likely a combinational loop "
      "through:";
  for (const Module* m : dirty) {
    msg += ' ';
    msg += m->name();
  }
  return msg;
}
}  // namespace detail

void Simulator::throw_full_sweep_divergence() {
  // One extra instrumented pass so the error names the offenders: a
  // module whose eval still changes a wire is part of the loop (or fed
  // by it).
  std::vector<const Module*> dirty;
  for (Module* m : modules_) {
    if (!m->is_combinational()) continue;
    const std::uint64_t before = changes_.n;
    m->eval();
    if (changes_.n != before) dirty.push_back(m);
  }
  throw ConvergenceError(detail::divergence_message(dirty));
}

void Simulator::visit_checkpoint(StateVisitor& v) {
  // A restore overwrites every module's state, and sleep is not part of
  // a snapshot: every module restarts awake.
  if (!v.saving()) sched_.wake_all();
  std::uint32_t pol = static_cast<std::uint32_t>(policy_);
  v.u32(pol);
  if (!v.saving() && pol != static_cast<std::uint32_t>(policy_)) {
    v.fail(std::string("snapshot captured under sched policy '") +
           sched::to_string(static_cast<sched::SchedPolicy>(pol)) +
           "' but the restoring simulator uses '" +
           sched::to_string(policy_) + "'");
  }
  visit(v, cycle_);
  visit(v, eval_passes_);
  visit(v, module_evals_);
  sched_.visit_checkpoint(v);
  if (!v.saving()) mark_settled();
}

void Simulator::advance() {
  settle_now();  // free when the previous edge left the netlist settled
  if (!cycle_callbacks_.empty()) {
    sched_.catch_up_all();
    // Callbacks run with no change sink installed: they are testbench
    // code and may write wires other simulators read, so their writes
    // must bump the ambient epoch (conservative cross-simulator
    // invalidation), not be taken for this simulator's.
    for (auto& cb : cycle_callbacks_) cb(cycle_);
    // What they touched must not be slept through at this edge.
    if (needs_full_invalidation()) sched_.wake_all();
  }
  if (policy_ == sched::SchedPolicy::kEventDriven) {
    // The scheduler takes the edge's changes: wires mutated at the edge
    // (reset callbacks, forced flushes) wake their declared eval readers
    // precisely, and wake sleeping tick readers — later in registration
    // order they still tick at this edge.
    sched_.tick_awake();
    ++cycle_;
    // Precise post-edge invalidation: each module that ticked reports
    // whether this edge touched eval-relevant register state
    // (conservative default: yes). Modules that reported idle sleep from
    // here on.
    sched_.end_edge();
    // settled_ stays true: the worklist plus the scheduler's unattributed
    // flag carry the edge, so a fully quiet edge settles for free.
    settle_now();
    return;
  }
  {
    detail::ChangeSinkScope sink(changes_);
    for (Module* m : modules_) m->tick();
  }
  settled_ = false;  // tick() mutates register state behind the wires' backs
  ++cycle_;
  // Post-edge settle so callers observing wires after step() (tests,
  // probes) see outputs consistent with the new register state. This is
  // the single full eval convergence for the cycle.
  settle_now();
}

void Simulator::step() {
  advance();
  sched_.catch_up_all();
}

bool Simulator::quiescent() const {
  // Then advance() settles nothing, runs no callback, ticks nothing and
  // enqueues nothing: it only counts the cycle, and so does every edge
  // after it until something outside the kernel acts.
  return sched_.quiescent() && policy_ == sched::SchedPolicy::kEventDriven &&
         cycle_callbacks_.empty() && !needs_full_invalidation();
}

void Simulator::run(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    if (quiescent()) {
      cycle_ += n - i;
      break;
    }
    advance();
  }
  sched_.catch_up_all();
}

bool Simulator::run_until(const std::function<bool()>& pred,
                          std::uint64_t max_cycles) {
  for (std::uint64_t i = 0; i < max_cycles; ++i) {
    settle();
    if (pred()) return true;
    advance();
  }
  settle();
  return pred();
}

}  // namespace sim
