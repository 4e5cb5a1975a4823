#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace sim::sched {

/// Why a module was enqueued on the event-driven worklist.
enum class WakeCause : std::uint8_t {
  kWire,    ///< a declared input wire changed value
  kTick,    ///< post-edge invalidation (tick_changed_eval_state)
  kNotify,  ///< Module::notify_state_change (testbench mutation)
  kFull,    ///< mark_all_dirty / registration (conservative wake)
};

/// One module's slice of the event-driven scheduler's activity since
/// construction: how often it evaluated and why it woke. All counters
/// are event-driven-mode only; under kFullSweep every combinational
/// module evaluates every pass and the profile stays zero.
struct ModuleProfile {
  std::string name;
  std::uint64_t evals = 0;
  std::uint64_t wire_wakeups = 0;
  std::uint64_t tick_wakeups = 0;
  std::uint64_t notify_wakeups = 0;
  std::uint64_t full_wakeups = 0;
  /// Sleeping through clock edges right now (tick gating, event-driven
  /// mode). Derived from the scheduler, never serialized.
  bool asleep = false;

  std::uint64_t wakeups() const {
    return wire_wakeups + tick_wakeups + notify_wakeups + full_wakeups;
  }
};

/// A coherent sample of the scheduler profiler: per-module activity in
/// registration order plus the worklist-depth distribution (dirty-set
/// length at the start of every non-empty drain — how wide each settle
/// front is). Deterministic for a deterministic run, so campaign trials
/// can embed it in reports.
struct SchedProfile {
  std::vector<ModuleProfile> modules;  ///< registration order
  sim::Histogram dirty_depth;

  std::uint64_t total_evals() const;

  /// Human-readable eval-hog report: the n busiest modules by eval
  /// count (ties broken by name), one line each with wake-cause
  /// breakdown, plus a totals footer. The tool for answering "why is
  /// this simulation slow".
  std::string top_modules(std::size_t n = 10) const;
};

}  // namespace sim::sched
