#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "axi/traffic_gen.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "sim/stats.hpp"
#include "soc/builder.hpp"
#include "soc/topologies.hpp"
#include "tmu/config.hpp"
#include "trace/format.hpp"

/// Parallel Monte-Carlo fault-campaign engine (§III-A.3: "injecting
/// random failures at key AXI transaction stages"). A campaign is a list
/// of scenarios, each holding independent TrialSpecs; the Engine shards
/// trials across a worker pool and aggregates results deterministically:
/// a report for a fixed base seed is byte-identical for 1 or N threads.
///
/// Parallelism is safe because every trial runs on a netlist and
/// Simulator no other worker holds (its own, or a pooled one restored
/// on the worker's thread), and each Simulator takes its changes through
/// a change sink of its own, installed thread-locally (sim/context.hpp)
/// — no shared mutable state between workers.
namespace campaign {

/// One independent Monte-Carlo trial. `point == kNone` is a healthy
/// soak (no fault armed; any flag is a false positive).
struct TrialSpec {
  /// Topology the trial runs on, rebuilt per trial through SocBuilder
  /// (serializable, so a remote shard can reconstruct the exact
  /// netlist). Defaults to the Fig. 8/9 IP-level testbench. The trial
  /// drives the first manager (a traffic_gen) and monitors the first
  /// guard in soc::visit_guards order (root guards first, then nested
  /// cluster levels depth-first); `cfg` below overrides that guard's
  /// TMU config, the
  /// engine-derived `seed` overrides that manager's seed, and an
  /// enabled `traffic` overrides that manager's traffic mode (a
  /// disabled one keeps whatever the desc configured), so one topology
  /// serves a whole config sweep.
  soc::SocDesc desc = soc::ip_testbench_desc();
  tmu::TmuConfig cfg;
  fault::FaultPoint point = fault::FaultPoint::kNone;
  axi::RandomTrafficConfig traffic;
  /// Per-trial RNG seed; 0 means the Engine derives one from its base
  /// seed and the trial's global index (deterministic, schedule-free).
  std::uint64_t seed = 0;
  std::uint64_t inject_delay_max = 500;  ///< injection delay drawn in [0, max]
  std::uint64_t detect_budget = 4000;    ///< cycles after injection delay
  std::uint64_t soak_cycles = 10000;     ///< run length for healthy trials
  /// Fault-free warm-up phase run before the fault window opens (cycles
  /// of traffic with the DESC's own manager seed — not the per-trial
  /// seed, so the warm-up is common to every trial of a scenario). After
  /// warm-up the driven manager is reseeded with the trial seed and the
  /// fault is armed; budgets below count from the warm-up boundary. The
  /// engine's snapshot-fork path (make_forking_trial_fn) runs the
  /// warm-up once per distinct (desc, cfg, traffic, trace_links,
  /// warmup_cycles) group and forks every trial from the captured state
  /// — byte-identical to cold-starting each trial, just cheaper.
  std::uint64_t warmup_cycles = 0;
  /// Hard watchdog ceiling on cycles simulated past the warm-up
  /// boundary; 0
  /// derives it from the budgets above (saturating, so a deliberately
  /// huge detect_budget still gets a finite ceiling). A trial clipped by
  /// the ceiling terminates with TrialResult::timed_out set instead of
  /// looping. The derived default is never smaller than what the
  /// budgeted phases can legitimately use, so it does not perturb
  /// well-budgeted trials.
  std::uint64_t max_cycles = 0;
  bool exercise_recovery = false;        ///< after detection: disarm, recover
  /// Extra links to capture during the trial (builder link names, e.g.
  /// "gen.out"). Each becomes a declarative TraceDesc named
  /// "trace.<link>" appended to the desc's own `traces`; the captured
  /// streams come back in TrialResult::traces (desc traces first, then
  /// these, in order).
  std::vector<std::string> trace_links;

  /// Structural equality — what campaign-spec serialization (see
  /// remote.hpp) round-trips and run-length-encodes on.
  bool operator==(const TrialSpec&) const = default;
};

struct TrialResult {
  bool detected = false;
  bool recovered = false;        ///< only with exercise_recovery
  bool traffic_resumed = false;  ///< only with exercise_recovery
  /// The trial body threw (e.g. an elaboration error or a convergence
  /// failure): the campaign records it here — deterministically, in the
  /// trial's own result slot — and keeps going instead of aborting.
  bool failed = false;
  std::string error;  ///< exception message when failed
  /// The watchdog ceiling (TrialSpec::max_cycles) clipped the trial
  /// before its predicate was met — a named result for never-detecting
  /// trials instead of an unbounded loop.
  bool timed_out = false;
  std::uint64_t inject_delay = 0;
  std::uint64_t detect_cycle = 0;
  std::uint64_t latency = 0;  ///< fault onset -> detection
  std::uint64_t cycles_run = 0;
  std::uint64_t eval_passes = 0;
  std::uint64_t completed_txns = 0;
  std::uint64_t data_mismatches = 0;
  std::uint64_t error_responses = 0;
  /// The trial netlist's observability snapshot: every declarative
  /// probe's metrics (desc.probes) plus the scheduler profile
  /// ("sched.<module>.evals" counters, "sched.dirty_depth" histogram).
  /// Merged index-order into the scenario summaries, so the report
  /// carries per-link latency distributions for free.
  obs::MetricsSnapshot metrics;
  /// Captured AXI streams, one per desc trace + spec trace_link (in that
  /// order): replayable via trace::TraceTrafficGen or exportable with
  /// trace::export_chrome_json. Not part of the JSON report.
  std::vector<trace::TraceBuffer> traces;
};

using TrialFn = std::function<TrialResult(const TrialSpec&)>;

/// Standard fault trial: elaborates spec.desc through SocBuilder (by
/// default the Fig. 8/9 testbench: traffic gen -> manager-side injector
/// -> TMU -> subordinate-side injector -> memory, with the external
/// reset unit), drives the first manager and injects at the first
/// guard. Builds a private netlist, so it is safe to run on any worker
/// thread. Throws std::invalid_argument if the desc lacks a leading
/// traffic_gen manager, a guard, or the injector the fault point needs.
TrialResult run_fault_trial(const TrialSpec& spec);

/// The post-warm-up body of run_fault_trial, entered on a netlist that
/// already carries the trial desc's warmed state (either freshly warmed
/// in place or restored from a snapshot::Snapshot fork). Reseeds the
/// driven manager with spec.seed when the spec has a warm-up phase, then
/// arms/runs/collects exactly as the cold path does.
TrialResult finish_fault_trial(const TrialSpec& spec, soc::Soc& soc);

/// A TrialFn equivalent to run_fault_trial that amortizes warm-up
/// across trials: the first trial of each warm-up group (same desc, TMU
/// config, traffic, trace links and warmup_cycles — per-trial seed and
/// fault point excluded) runs the warm-up once and captures a
/// snapshot::Snapshot; every other trial of the group forks from it.
/// Each group pools the trial netlists no worker is using: a trial takes
/// one (the warm-up netlist serves the group's first trial; later trials
/// build one only when none is idle), restores the snapshot into it on
/// its own thread, runs finish_fault_trial and hands it back, so
/// elaboration happens once per worker per group; a netlist whose
/// restore or trial throws is dropped. Thread-safe (workers arriving
/// while the warm-up runs block on its shared future); results are
/// byte-identical to run_fault_trial for every spec. Trials without a
/// warm-up phase pass straight through.
TrialFn make_forking_trial_fn();

/// Runs `fn` on `spec` and turns a throw into a failed result carrying
/// the exception's message: a throwing trial is data, not a campaign
/// abort. Engine::run and remote::run_range run every trial through it.
TrialResult run_trial_captured(const TrialFn& fn, const TrialSpec& spec);

/// A labelled group of trials (e.g. one variant x fault-point pair).
struct Scenario {
  std::string label;
  std::vector<TrialSpec> trials;

  bool operator==(const Scenario&) const = default;
};

/// Convenience: n identical trials under `label` (seeds left 0 so the
/// Engine derives a distinct deterministic seed per trial).
Scenario make_scenario(std::string label, const TrialSpec& proto,
                       std::size_t n);

struct ScenarioSummary {
  std::string label;
  /// Topology fingerprint of the scenario's trials (name/hash of the
  /// first trial's desc; "mixed"/0 when trials disagree) — so a report
  /// merged from remote shards still says what each slice ran on.
  std::string topology;
  std::uint64_t topology_hash = 0;
  std::uint64_t trials = 0;
  std::uint64_t detected = 0;
  std::uint64_t recovered = 0;
  std::uint64_t traffic_resumed = 0;
  std::uint64_t false_positives = 0;  ///< healthy trials that flagged
  std::uint64_t failed_trials = 0;    ///< trials whose body threw
  std::uint64_t timed_out = 0;        ///< trials clipped by the watchdog
  std::uint64_t total_cycles = 0;
  std::uint64_t total_eval_passes = 0;
  sim::RunningStats latency;   ///< detection latency across detected trials
  sim::Histogram latency_hist;
  /// Exact merge of the scenario trials' metrics snapshots, in global
  /// trial-index order — deterministic at any thread count.
  obs::MetricsSnapshot metrics;
};

struct Report {
  std::uint64_t base_seed = 0;
  std::vector<ScenarioSummary> scenarios;
  /// Campaign-wide pooled summary, combined from the per-scenario
  /// summaries in scenario order via RunningStats::merge /
  /// Histogram::merge (exact, so still deterministic).
  ScenarioSummary overall;
  /// Flat per-trial results in global trial-index order (deterministic).
  std::vector<TrialResult> results;

  // Environment/timing info — excluded from to_json() so reports are
  // byte-identical across thread counts and machine speeds.
  unsigned threads_used = 0;
  double wall_seconds = 0.0;

  std::uint64_t total_trials() const { return results.size(); }
  std::uint64_t total_cycles() const;

  /// Deterministic JSON (schema tmu-campaign-report-v3; see README).
  std::string to_json() const;
  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;
};

/// The deterministic per-trial seed for global trial index `index`
/// under `base_seed` (SplitMix64-style mixing; schedule-free). Every
/// execution path — the in-process Engine, a remote campaign_worker
/// owning an arbitrary trial range, the dispatcher's in-process
/// fallback — derives seeds through this one function, which is what
/// makes any shard split reproduce the same trials.
std::uint64_t derive_trial_seed(std::uint64_t base_seed, std::uint64_t index);

/// The global trial list, read in place (the determinism key: seed
/// derivation, result slots, and aggregation order all depend only on
/// the global index). Trial i is trials[i - first] of the scenario whose
/// trials start at global index `first`, scenarios in order, and a spec
/// whose seed is 0 gets derive_trial_seed(base_seed, i). Engine::run,
/// remote::run_range and flatten_trials() read trials only through it.
/// Holds a reference to `scenarios`, which must outlive it.
class TrialList {
 public:
  TrialList(const std::vector<Scenario>& scenarios, std::uint64_t base_seed);

  std::size_t size() const { return first_.back(); }
  /// Assigns global trial `i` (< size()), seed derived, to `out`.
  void get(std::size_t i, TrialSpec& out) const;

 private:
  const std::vector<Scenario>& scenarios_;
  std::uint64_t base_seed_;
  /// first_[s]: global index of scenario s's first trial; one more
  /// entry than scenarios, the last being the trial count.
  std::vector<std::size_t> first_;
};

/// The whole TrialList as one vector of specs, derived seeds filled in.
std::vector<TrialSpec> flatten_trials(const std::vector<Scenario>& scenarios,
                                      std::uint64_t base_seed);

/// Rebuilds rep.scenarios and rep.overall from rep.results (which must
/// hold one result per flattened trial, in global index order). Serial,
/// fixed iteration order, exact merges — so the aggregate views are
/// bit-identical however the results were produced: one thread, a pool,
/// or remote slices merged back together (remote::merge_slices and
/// Engine::run share this exact code path).
void aggregate_report(const std::vector<Scenario>& scenarios, Report& rep);

struct EngineOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  unsigned threads = 0;
  /// Base seed for deriving per-trial seeds where TrialSpec.seed == 0.
  std::uint64_t base_seed = 0xC0FFEEull;
};

/// Thread-pool-sharded campaign runner. Workers pull trial indices from
/// a shared atomic cursor (good load balance for variable-length
/// trials); each result is keyed by its trial index and aggregation runs
/// serially in index order afterwards, so the Report — including every
/// floating-point statistic — is bit-identical regardless of thread
/// count or schedule.
class Engine {
 public:
  explicit Engine(EngineOptions opts = {});

  /// Effective worker count after resolving threads == 0.
  unsigned threads() const { return threads_; }

  /// Runs the campaign. An empty `fn` (the default) means the standard
  /// fault trial with warm-up snapshot-forking (make_forking_trial_fn);
  /// a TrialFn passed explicitly runs as-is (run_fault_trial runs every
  /// trial cold). Reports are byte-identical either way.
  Report run(const std::vector<Scenario>& scenarios,
             const TrialFn& fn = {}) const;

 private:
  EngineOptions opts_;
  unsigned threads_;
};

}  // namespace campaign
