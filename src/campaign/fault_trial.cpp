#include <algorithm>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "campaign/campaign.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"
#include "snapshot/snapshot.hpp"
#include "soc/builder.hpp"
#include "tmu/tmu.hpp"
#include "trace/recorder.hpp"

namespace campaign {

namespace {

/// The elaboration desc for a trial: validates the driving manager and
/// the monitored guard, applies the spec's TMU config override and
/// per-trial capture points. With a warm-up phase the manager keeps the
/// desc's own seed — the warm-up is common across a scenario's trials
/// (that is what makes it fork-shareable) and the per-trial seed lands
/// via TrafficGenerator::reseed at the warm-up boundary.
soc::SocDesc make_trial_desc(const TrialSpec& spec) {
  soc::SocDesc d = spec.desc;
  if (d.managers.empty() ||
      d.managers.front().kind != soc::ManagerKind::kTrafficGen) {
    throw std::invalid_argument(
        "run_fault_trial: desc '" + d.name +
        "' needs a traffic_gen manager in first position to drive");
  }
  // The monitored guard is the first in visit_guards order — the first
  // root-level guard, or, when only nested levels are guarded, the
  // first guard of the first cluster depth-first.
  soc::GuardDesc* monitored = soc::first_guard(d);
  if (monitored == nullptr) {
    throw std::invalid_argument("run_fault_trial: desc '" + d.name +
                                "' declares no guard (TMU) to monitor");
  }
  if (spec.warmup_cycles == 0) d.managers.front().seed = spec.seed;
  monitored->cfg = spec.cfg;
  // Per-trial capture points ride the declarative traces mechanism, so
  // they are validated (and hash-covered) exactly like desc-native ones.
  for (const std::string& link : spec.trace_links) {
    d.traces.push_back(soc::TraceDesc{"trace." + link, link});
  }
  return d;
}

/// Applies the spec's traffic override and runs the warm-up phase (a
/// no-op for warmup_cycles == 0). This is everything a warm-up snapshot
/// captures; nothing here may depend on the per-trial seed/fault point.
void apply_traffic_and_warm(const TrialSpec& spec, soc::Soc& soc) {
  const soc::SocDesc& d = soc.desc();
  axi::TrafficGenerator& gen =
      soc.get<axi::TrafficGenerator>(d.managers.front().name);
  // spec.traffic drives the trial; a default (disabled) spec must not
  // clobber the traffic mode a custom desc configured for its manager.
  if (spec.traffic.enabled || !d.managers.front().traffic.enabled) {
    if (const std::string e = spec.traffic.range_error(); !e.empty()) {
      throw std::invalid_argument(
          "run_fault_trial: traffic override has an inverted range: " + e);
    }
    gen.set_random(spec.traffic);
  }
  if (spec.warmup_cycles > 0) soc.sim().run(spec.warmup_cycles);
}

/// The warm-up sharing key: the spec with every per-trial field
/// neutralized, written over `key`, whose storage a worker reuses so a
/// lookup allocates nothing once `key` has held a spec of the same
/// shape. Two specs with equal keys run the identical warm-up phase on
/// the identical netlist, so one snapshot serves both; a field not
/// neutralized here separates groups, so a new field never merges two
/// warm-ups.
void assign_warmup_key(TrialSpec& key, const TrialSpec& spec) {
  key = spec;
  key.seed = 0;
  key.point = fault::FaultPoint::kNone;
  key.inject_delay_max = 0;
  key.detect_budget = 0;
  key.soak_cycles = 0;
  key.max_cycles = 0;
  key.exercise_recovery = false;
}

}  // namespace

TrialResult run_fault_trial(const TrialSpec& spec) {
  // Private netlist per trial, elaborated from the spec's topology desc
  // (default: the Fig. 8/9 IP-level testbench). Nothing escapes this
  // stack frame, so trials are safe on any worker thread.
  const soc::SocDesc d = make_trial_desc(spec);
  const std::unique_ptr<soc::Soc> soc = soc::SocBuilder::build(d);
  apply_traffic_and_warm(spec, *soc);
  return finish_fault_trial(spec, *soc);
}

TrialResult finish_fault_trial(const TrialSpec& spec, soc::Soc& soc) {
  const soc::SocDesc& d = soc.desc();
  sim::Simulator& s = soc.sim();
  axi::TrafficGenerator& gen =
      soc.get<axi::TrafficGenerator>(d.managers.front().name);
  const soc::GuardDesc& guard = *soc::first_guard(d);
  tmu::Tmu& t = soc.get<tmu::Tmu>(guard.name);
  // The warm-up boundary: the per-trial seed takes over from here, so
  // everything after this line is a function of (snapshot state, spec
  // seed, fault point) — identical whether the state was warmed in
  // place or restored from a fork.
  if (spec.warmup_cycles > 0) gen.reseed(spec.seed);

  TrialResult r;

  // Hung-trial watchdog: a hard ceiling on total cycles simulated, so a
  // never-detecting trial (e.g. a disabled TMU under an absurd
  // detect_budget) terminates with a named result instead of looping.
  // The derived default covers everything the budgeted phases can
  // legitimately use, so well-budgeted trials are never clipped; sums
  // saturate so deliberately huge budgets still yield a finite ceiling.
  // Budgets count from the warm-up boundary (s.cycle() == 0 without a
  // warm-up phase, so this is the historical behaviour for cold trials).
  constexpr std::uint64_t kRecoveryBudget = 2000;
  const auto sat_add = [](std::uint64_t a, std::uint64_t b) {
    const std::uint64_t sum = a + b;
    return sum < a ? ~std::uint64_t{0} : sum;
  };
  std::uint64_t ceiling = spec.max_cycles;
  if (ceiling == 0) {
    ceiling = spec.point == fault::FaultPoint::kNone
                  ? spec.soak_cycles
                  : sat_add(spec.inject_delay_max, spec.detect_budget);
    if (spec.exercise_recovery) ceiling = sat_add(ceiling, 2 * kRecoveryBudget);
  }
  ceiling = sat_add(ceiling, s.cycle());
  // Cycles the watchdog still allows for the next phase.
  const auto capped = [&](std::uint64_t want) {
    const std::uint64_t left = ceiling > s.cycle() ? ceiling - s.cycle() : 0;
    return std::min(want, left);
  };

  if (spec.point == fault::FaultPoint::kNone) {
    // Healthy soak: any flag is a false positive.
    const std::uint64_t budget = capped(spec.soak_cycles);
    s.run(budget);
    r.timed_out = budget < spec.soak_cycles;
    r.detected = t.any_fault();
    if (r.detected) r.detect_cycle = t.fault_log().front().cycle;
  } else {
    const bool mgr_side = fault::is_manager_side(spec.point);
    const std::string& inj_name =
        mgr_side ? guard.mgr_injector : guard.sub_injector;
    if (inj_name.empty()) {
      throw std::invalid_argument(
          std::string("run_fault_trial: fault point ") +
          to_string(spec.point) + " needs a " +
          (mgr_side ? "mgr_injector" : "sub_injector") + " on guard '" +
          guard.name + "' of desc '" + d.name + "'");
    }
    fault::FaultInjector& inj = soc.get<fault::FaultInjector>(inj_name);

    // Decorrelate the injection-delay draw from the traffic stream.
    sim::Rng rng(spec.seed ^ 0xD1B54A32D192ED03ull);
    r.inject_delay =
        spec.inject_delay_max != 0 ? rng.range(0, spec.inject_delay_max) : 0;
    inj.arm(spec.point, r.inject_delay);
    const std::uint64_t want = sat_add(r.inject_delay, spec.detect_budget);
    const std::uint64_t budget = capped(want);
    if (s.run_until([&] { return t.any_fault(); }, budget)) {
      r.detected = true;
      r.detect_cycle = t.fault_log().front().cycle;
      r.latency = r.detect_cycle - inj.fault_start_cycle();
    } else {
      // Only a watchdog-clipped miss is a timeout; an unclipped miss is
      // the ordinary "not detected within budget" outcome.
      r.timed_out = budget < want;
    }
    if (r.detected && spec.exercise_recovery) {
      inj.disarm();
      const std::uint64_t rb = capped(kRecoveryBudget);
      r.recovered = s.run_until([&] { return t.recoveries() >= 1; }, rb);
      if (!r.recovered && rb < kRecoveryBudget) r.timed_out = true;
      const auto before = gen.completed();
      const std::uint64_t tb = capped(kRecoveryBudget);
      r.traffic_resumed =
          s.run_until([&] { return gen.completed() > before; }, tb);
      if (!r.traffic_resumed && tb < kRecoveryBudget) r.timed_out = true;
    }
  }

  r.cycles_run = s.cycle();
  r.eval_passes = s.eval_passes();
  r.completed_txns = gen.completed();
  r.data_mismatches = gen.data_mismatches();
  r.error_responses = gen.error_responses();

  // Observability: the netlist's probe metrics plus the scheduler
  // profile, bridged into the snapshot under "sched.*" (obs does not
  // know the scheduler and vice versa; the trial is the seam). Zero-eval
  // modules are elided so grid-sized reports stay proportional to
  // activity.
  r.metrics = soc.metrics().snapshot();
  const sim::sched::SchedProfile prof = s.sched_profile();
  for (const auto& mp : prof.modules) {
    if (mp.evals != 0) {
      r.metrics.counters["sched." + mp.name + ".evals"] += mp.evals;
    }
  }
  r.metrics.histograms["sched.dirty_depth"].merge(prof.dirty_depth);

  // Captured streams, desc order (desc-native traces first, then the
  // spec's trace_links — exactly the order appended above).
  for (const soc::TraceDesc& td : d.traces) {
    r.traces.push_back(soc.get<trace::Recorder>(td.name).take());
  }
  return r;
}

TrialFn make_forking_trial_fn() {
  // One warm-up group: its snapshot, and the trial netlists elaborated
  // from its desc that no worker is using right now. A worker holds one
  // netlist at a time, so a group never pools more than one per worker.
  struct Group {
    TrialSpec key;
    std::shared_future<std::shared_ptr<const snapshot::Snapshot>> snap;
    std::vector<std::unique_ptr<soc::Soc>> idle;
  };
  struct Cache {
    std::mutex mu;
    std::vector<Group> groups;  // few groups; structural-compare lookup
  };
  auto cache = std::make_shared<Cache>();
  return [cache](const TrialSpec& spec) -> TrialResult {
    if (spec.warmup_cycles == 0) return run_fault_trial(spec);

    thread_local TrialSpec key;
    assign_warmup_key(key, spec);
    // Only the group's producer fulfils a promise; the others wait.
    std::optional<std::promise<std::shared_ptr<const snapshot::Snapshot>>>
        mine;
    std::shared_future<std::shared_ptr<const snapshot::Snapshot>> fut;
    std::unique_ptr<soc::Soc> soc;
    std::size_t group = 0;
    {
      std::lock_guard<std::mutex> lock(cache->mu);
      std::vector<Group>& groups = cache->groups;
      while (group < groups.size() && !(groups[group].key == key)) ++group;
      if (group == groups.size()) {
        mine.emplace();
        groups.push_back(Group{key, mine->get_future().share(), {}});
      } else if (!groups[group].idle.empty()) {
        soc = std::move(groups[group].idle.back());
        groups[group].idle.pop_back();
      }
      fut = groups[group].snap;
    }
    if (mine) {
      // Run the shared warm-up outside the lock; waiters block on the
      // future. A warm-up failure is delivered to every trial of the
      // group — the same exception the cold path would throw per trial.
      try {
        std::unique_ptr<soc::Soc> warm =
            soc::SocBuilder::build(make_trial_desc(key));
        apply_traffic_and_warm(key, *warm);
        mine->set_value(std::make_shared<const snapshot::Snapshot>(
            snapshot::capture(*warm)));
        soc = std::move(warm);  // becomes this trial's netlist
      } catch (...) {
        mine->set_exception(std::current_exception());
      }
    }
    const std::shared_ptr<const snapshot::Snapshot> snap = fut.get();
    // make_trial_desc(spec) == make_trial_desc(key): with a warm-up
    // phase the desc carries no per-trial field.
    if (soc == nullptr) soc = soc::SocBuilder::build(make_trial_desc(spec));
    // Restore on this thread, the one that drives the trial: restore
    // re-syncs the simulator with the thread's ambient epoch, which is
    // what lets a pooled netlist move between workers. A netlist whose
    // restore or trial throws is dropped with this frame, never pooled.
    snapshot::restore(*snap, *soc);
    TrialResult r = finish_fault_trial(spec, *soc);
    {
      std::lock_guard<std::mutex> lock(cache->mu);
      cache->groups[group].idle.push_back(std::move(soc));
    }
    return r;
  };
}

}  // namespace campaign
