#include "sim/sched/sched.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <string>

#include "sim/kernel.hpp"
#include "sim/module.hpp"
#include "sim/state.hpp"
#include "sim/wire.hpp"

namespace sim::sched {

namespace {

/// Scheduler instance tags for wire-slot ownership. Starts at 1 so the
/// zero-initialised slot of a never-declared wire can never match. A tag
/// is consumed per Simulator construction; 32 bits of tag space outlive
/// any realistic campaign. Should the counter wrap, a wire declared under
/// a destroyed scheduler could carry a live scheduler's tag and a stale
/// id. owns() keeps such an id inside the fan-out table, where it shares
/// the list of whichever wire holds that id: writes to either wire then
/// wake both wires' readers. That costs extra evals, never a missed wake.
std::uint64_t next_tag() {
  static std::atomic<std::uint32_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

/// Collects one module's declared inputs into fan-out edges. Eval
/// declarations of a tick-only module are dropped: it never evaluates.
class EventScheduler::FanoutBuilder final : public InputVisitor {
 public:
  FanoutBuilder(EventScheduler& s, std::uint32_t reader, bool combinational)
      : s_(s), reader_(reader), combinational_(combinational) {}

 private:
  void on_input(std::uint64_t& slot) override {
    if (combinational_) s_.add_edge(slot, reader_);
  }
  void on_tick_input(std::uint64_t& slot) override {
    s_.add_tick_edge(slot, reader_);
  }

  EventScheduler& s_;
  std::uint32_t reader_;
  bool combinational_;
};

EventScheduler::EventScheduler(SimContext& ctx, const std::uint64_t& cycle)
    : ctx_(ctx), tag_(next_tag()), cycle_(cycle) {
  ctx_.attach_dirty_sink(this);
}

EventScheduler::~EventScheduler() { ctx_.attach_dirty_sink(nullptr); }

bool EventScheduler::register_module(Module& m, std::uint32_t owner) {
  const auto idx = static_cast<std::uint32_t>(modules_.size());
  if (!index_of_.try_emplace(&m, idx).second) return false;
  modules_.push_back(&m);
  combinational_.push_back(m.is_combinational() ? 1 : 0);
  dirty_.push_back(0);
  prof_evals_.push_back(0);
  prof_wire_wakes_.push_back(0);
  prof_tick_wakes_.push_back(0);
  prof_notify_wakes_.push_back(0);
  prof_full_wakes_.push_back(0);
  gate_.push_back(kAwake);
  slept_at_.push_back(0);
  dependents_.emplace_back();
  if (idx % 64 == 0) awake_.push_back(0);
  if (m.is_sequential()) {
    awake_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    ++sequential_count_;
  } else if (owner != kNoIndex) {
    dependents_[owner].push_back(idx);
  }
  FanoutBuilder edges(*this, idx, combinational_[idx] != 0);
  m.visit_inputs(edges);
  // Tick-only modules never evaluate, so they need no eval wakes.
  if (combinational_[idx] != 0) enqueue(idx, WakeCause::kFull);
  return true;
}

bool EventScheduler::owns(std::uint64_t slot) const {
  return (slot >> 32) == tag_ &&
         static_cast<std::uint32_t>(slot) < fanout_.size();
}

EventScheduler::Fanout& EventScheduler::fanout_of(std::uint64_t& slot) {
  if (!owns(slot)) {
    // First declaration here (a slot tagged by another scheduler means
    // the wire moved simulators: wire-disjointness makes that a handoff).
    slot = (tag_ << 32) | fanout_.size();
    fanout_.emplace_back();
  }
  return fanout_[static_cast<std::uint32_t>(slot)];
}

// A module's declarations arrive together, so a repeat is the wire's
// latest edge.
void EventScheduler::add_edge(std::uint64_t& slot, std::uint32_t reader) {
  std::vector<std::uint32_t>& readers = fanout_of(slot).eval;
  if (readers.empty()) ++stats_.wires;
  if (readers.empty() || readers.back() != reader) {
    readers.push_back(reader);
    ++stats_.edges;
  }
}

void EventScheduler::add_tick_edge(std::uint64_t& slot, std::uint32_t reader) {
  std::uint32_t& head = fanout_of(slot).tick_head;
  if (head == kNoEdge || tick_edges_[head].reader != reader) {
    tick_edges_.push_back(TickEdge{reader, head});
    head = static_cast<std::uint32_t>(tick_edges_.size() - 1);
  }
}

void EventScheduler::mark_all_dirty() {
  ++stats_.full_invalidations;
  for (std::uint32_t i = 0; i < modules_.size(); ++i) {
    if (combinational_[i] != 0) enqueue(i, WakeCause::kFull);
  }
}

void EventScheduler::enqueue(std::uint32_t idx, WakeCause cause) {
  if (dirty_[idx] == 0) {
    dirty_[idx] = 1;
    queue_.push_back(idx);
    if (profiling_) {
      switch (cause) {
        case WakeCause::kWire: ++prof_wire_wakes_[idx]; break;
        case WakeCause::kTick: ++prof_tick_wakes_[idx]; break;
        case WakeCause::kNotify: ++prof_notify_wakes_[idx]; break;
        case WakeCause::kFull: ++prof_full_wakes_[idx]; break;
      }
    }
  }
}

void EventScheduler::on_wire_write(std::uint64_t& slot) {
  ++stats_.wire_writes;
  // Another scheduler's (or no) tag: no reader declared this wire here.
  if (!owns(slot)) return;
  const Fanout& f = fanout_[static_cast<std::uint32_t>(slot)];
  for (const std::uint32_t reader : f.eval) {
    if (dirty_[reader] == 0) {
      dirty_[reader] = 1;
      queue_.push_back(reader);
      ++stats_.wakeups;
      if (profiling_) ++prof_wire_wakes_[reader];
    }
  }
  for (std::uint32_t e = f.tick_head; e != kNoEdge; e = tick_edges_[e].next) {
    const std::uint32_t reader = tick_edges_[e].reader;
    if (gate_[reader] != kAwake) wake(reader);
  }
}

void EventScheduler::on_module_notified(std::uint32_t idx) {
  notified_ = true;
  if (combinational_[idx] != 0) enqueue(idx, WakeCause::kNotify);
  wake(idx);
}

void EventScheduler::catch_up(std::uint32_t idx) {
  // Edges every module below the tick cursor has been passed at, this
  // cycle's included.
  const std::uint64_t due = cycle_ + (idx < cursor_ ? 1 : 0);
  if (due > slept_at_[idx]) {
    const std::uint64_t n = due - slept_at_[idx];
    slept_at_[idx] = due;
    modules_[idx]->skip_ticks(n);
  }
}

void EventScheduler::wake(std::uint32_t idx) {
  if (gate_[idx] == kAsleep) {
    catch_up(idx);
    --asleep_count_;
    awake_[idx / 64] |= std::uint64_t{1} << (idx % 64);
  }
  gate_[idx] = kAwake;
}

std::uint32_t EventScheduler::next_awake(std::uint32_t idx) const {
  std::size_t w = idx / 64;
  if (w >= awake_.size()) return kNoIndex;
  std::uint64_t bits = awake_[w] & (~std::uint64_t{0} << (idx % 64));
  while (bits == 0) {
    if (++w == awake_.size()) return kNoIndex;
    bits = awake_[w];
  }
  return static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
}

void EventScheduler::tick_awake() {
  detail::ChangeSinkScope sink(*this);
  for (std::uint32_t i = next_awake(0); i != kNoIndex; i = next_awake(i + 1)) {
    Module* m = modules_[i];
    cursor_ = i;
    gate_[i] = kDrowsy;
    m->tick();
    if (!m->tick_idle()) gate_[i] = kAwake;
  }
  cursor_ = 0;
}

void EventScheduler::report(std::uint32_t idx) {
  if (combinational_[idx] != 0 && modules_[idx]->tick_changed_eval_state()) {
    enqueue(idx, WakeCause::kTick);
  }
}

void EventScheduler::end_edge() {
  // Modules that notify through bound setters during tick (e.g. the CPU
  // stub writing TMU registers) are already enqueued; a sleeper's
  // skipped tick reported no change.
  for (std::uint32_t i = next_awake(0); i != kNoIndex; i = next_awake(i + 1)) {
    report(i);
    for (const std::uint32_t d : dependents_[i]) report(d);
    if (gate_[i] == kDrowsy) {
      gate_[i] = kAsleep;
      slept_at_[i] = cycle_;
      ++asleep_count_;
      awake_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    }
  }
}

void EventScheduler::catch_up_all() {
  if (asleep_count_ == 0) return;
  for (std::uint32_t i = 0; i < modules_.size(); ++i) {
    if (gate_[i] == kAsleep) catch_up(i);
  }
}

void EventScheduler::wake_all() {
  if (asleep_count_ == 0) return;
  for (std::uint32_t i = 0; i < modules_.size(); ++i) {
    if (gate_[i] == kAsleep) wake(i);
  }
}

std::size_t EventScheduler::drain(int max_delta_iterations) {
  detail::ChangeSinkScope sink(*this);
  const std::size_t budget =
      static_cast<std::size_t>(max_delta_iterations) *
      std::max<std::size_t>(modules_.size(), 1);
  std::size_t evals = 0;
  if (profiling_ && head_ < queue_.size()) {
    depth_hist_.add(queue_.size() - head_);
  }
  while (head_ < queue_.size()) {
    if (evals >= budget) throw_divergence();
    const std::uint32_t m = queue_[head_++];
    // Clear before eval: a module writing a wire it reads legitimately
    // re-enqueues itself (a delta iteration).
    dirty_[m] = 0;
    if (gate_[m] == kAsleep) catch_up(m);  // eval sees current registers
    modules_[m]->eval();
    if (profiling_) ++prof_evals_[m];
    ++evals;
  }
  queue_.clear();
  head_ = 0;
  stats_.module_evals += evals;
  if (evals > 0) ++stats_.drains;
  return evals;
}

SchedProfile EventScheduler::profile() const {
  SchedProfile p;
  p.modules.reserve(modules_.size());
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    ModuleProfile mp;
    mp.name = modules_[i]->name();
    mp.evals = prof_evals_[i];
    mp.wire_wakeups = prof_wire_wakes_[i];
    mp.tick_wakeups = prof_tick_wakes_[i];
    mp.notify_wakeups = prof_notify_wakes_[i];
    mp.full_wakeups = prof_full_wakes_[i];
    mp.asleep = gate_[i] == kAsleep;
    p.modules.push_back(std::move(mp));
  }
  p.dirty_depth = depth_hist_;
  return p;
}

void EventScheduler::visit_checkpoint(StateVisitor& v) {
  // Structural guard: the restoring scheduler must hold the same module
  // registry (building both sides from the same desc guarantees it).
  std::uint64_t n_modules = modules_.size();
  visit(v, n_modules);
  if (!v.saving() && n_modules != modules_.size()) {
    v.fail("scheduler module count mismatch: snapshot has " +
           std::to_string(n_modules) + ", restoring netlist has " +
           std::to_string(modules_.size()));
  }

  // Pending worklist (the active queue region). Empty at a settled
  // capture point under the event-driven policy; under the full sweep
  // it carries the registration-time wakes the sweep never drains. The
  // loader reads it straight into the queue, keeping its storage.
  if (v.saving()) {
    std::vector<std::uint32_t> pending(
        queue_.begin() + static_cast<std::ptrdiff_t>(head_), queue_.end());
    visit(v, pending);
  } else {
    visit(v, queue_);
    head_ = 0;
    std::fill(dirty_.begin(), dirty_.end(), 0);
    for (const std::uint32_t m : queue_) {
      if (m >= modules_.size()) {
        v.fail("scheduler worklist names module " + std::to_string(m) +
               " out of range");
      }
      dirty_[m] = 1;
    }
  }

  visit(v, stats_.module_evals);
  visit(v, stats_.drains);
  visit(v, stats_.wire_writes);
  visit(v, stats_.wakeups);
  visit(v, stats_.full_invalidations);

  visit(v, profiling_);
  visit(v, prof_evals_);
  visit(v, prof_wire_wakes_);
  visit(v, prof_tick_wakes_);
  visit(v, prof_notify_wakes_);
  visit(v, prof_full_wakes_);
  visit(v, depth_hist_);

  if (!v.saving()) {
    for (const auto* arr : {&prof_evals_, &prof_wire_wakes_,
                            &prof_tick_wakes_, &prof_notify_wakes_,
                            &prof_full_wakes_}) {
      if (arr->size() != modules_.size()) {
        v.fail("scheduler profile array size mismatch");
      }
    }
  }
}

void EventScheduler::throw_divergence() {
  // Leave the scheduler consistent (the still-dirty tail stays queued)
  // in case the caller catches and retries.
  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
  std::vector<const Module*> dirty;
  dirty.reserve(queue_.size());
  for (const std::uint32_t m : queue_) dirty.push_back(modules_[m]);
  throw ConvergenceError(detail::divergence_message(dirty));
}

}  // namespace sim::sched
