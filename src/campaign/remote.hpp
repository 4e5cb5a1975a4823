#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

/// Multi-process campaign scale-out (the ROADMAP's "cluster scale" item):
/// a campaign serialized as data, workers that own arbitrary trial
/// ranges, and a dispatcher that survives crashed, hung, or
/// garbage-emitting workers — with the same determinism guarantee the
/// in-process Engine has. The contract, end to end:
///
///   CampaignSpec --to_json--> spec file --campaign_worker--> slice files
///        |                                                      |
///        +------------------ merge_slices <--------------------+
///
/// and the merged Report is byte-identical to campaign::Engine run on
/// the same spec, for ANY shard split and ANY failure/retry history.
/// Three pieces make that hold: (1) per-trial seeds derive from
/// (base_seed, global trial index) only — campaign::derive_trial_seed —
/// so any worker reproduces any trial; (2) slices carry full-precision
/// trial results (every double as %.17g, RunningStats as raw internal
/// state), so nothing is lost in transport; (3) aggregation runs once,
/// serially, in trial-index order over the reassembled results — the
/// same campaign::aggregate_report the Engine uses.
namespace campaign::remote {

/// Schema tag of spec documents (see README "Distributed campaigns").
inline constexpr const char* kSpecSchema = "tmu-campaign-spec-v1";
/// Schema tag of partial-report slice documents.
inline constexpr const char* kSliceSchema = "tmu-campaign-slice-v1";

/// A complete campaign as data: everything a remote worker needs to own
/// any trial range. Serializes canonically — equal specs produce
/// byte-identical documents — with two size reducers that keep
/// million-trial specs practical: topologies are emitted once into a
/// table (trials reference by index) and consecutive identical trials
/// run-length encode into one entry with a count.
struct CampaignSpec {
  std::uint64_t base_seed = 0xC0FFEEull;
  std::vector<Scenario> scenarios;

  bool operator==(const CampaignSpec&) const = default;

  std::uint64_t total_trials() const;

  /// Canonical strict JSON (schema tmu-campaign-spec-v1).
  std::string to_json() const;

  /// Parses a to_json() document. Unknown keys, type mismatches, bad
  /// enum names, out-of-range topology references and schema mismatches
  /// all throw std::invalid_argument naming the offending key.
  static CampaignSpec from_json(const std::string& json);

  /// FNV-1a 64 over the canonical JSON: the campaign fingerprint every
  /// slice records, so the merger can prove a slice ran this exact
  /// campaign (topologies, configs, seeds, trial order — everything).
  std::uint64_t hash() const;

  /// Fingerprint of just the topology table (FNV-1a over the ordered
  /// per-desc hashes): the "did every slice run the same netlists"
  /// check, recorded separately so a topology mismatch is
  /// distinguishable from any other spec drift.
  std::uint64_t topologies_hash() const;
};

/// A partial schema-v3 report: full-precision results for the trial
/// range [begin, end) of a spec, plus the provenance the merger
/// validates — which spec (spec_hash), which netlists (topology_hash),
/// which trials (begin/end, and each result indexed), and a checksum
/// over the canonical serialization of the results themselves.
struct ReportSlice {
  std::uint64_t spec_hash = 0;
  std::uint64_t topology_hash = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  /// results[i] is global trial begin + i. TrialResult::traces are not
  /// part of the slice (trace buffers ship separately if at all).
  std::vector<TrialResult> results;

  /// Canonical JSON (schema tmu-campaign-slice-v1), checksum included.
  std::string to_json() const;

  /// Parses and verifies a to_json() document: malformed JSON, schema
  /// mismatch, a range/result-count disagreement or a checksum mismatch
  /// throw std::invalid_argument. A slice that parses is internally
  /// consistent; merge_slices then checks it against the spec.
  static ReportSlice from_json(const std::string& json);
};

/// Called with the global index of the trial about to run (and once
/// with `end` after the last trial) — the worker's heartbeat hook.
using ProgressFn = std::function<void(std::uint64_t next_index)>;

/// Runs trials [begin, end) of the flattened spec in this process (the
/// campaign_worker binary's core, and the dispatcher's in-process
/// fallback). Like Engine::run, an empty `fn` runs the standard fault
/// trial forked from one warm-up per group (make_forking_trial_fn), and
/// trial failures are captured per-trial. Throws std::invalid_argument
/// on an invalid range.
ReportSlice run_range(const CampaignSpec& spec, std::uint64_t begin,
                      std::uint64_t end, const ProgressFn& progress = {},
                      const TrialFn& fn = {});

/// Index-order merge of slices back into a full report. Validates that
/// the slices exactly tile [0, spec.total_trials()) with no overlap,
/// that every slice carries this spec's spec_hash and topology_hash,
/// and that result counts match ranges; throws std::invalid_argument
/// naming the first violation. The returned report is byte-identical
/// (Report::to_json) to campaign::Engine({n, spec.base_seed}) on the
/// same scenarios, for any n and any shard split.
Report merge_slices(const CampaignSpec& spec,
                    const std::vector<ReportSlice>& slices);

struct DispatcherOptions {
  /// Worker binary (the campaign_worker CLI). Empty = in-process
  /// fallback: every range runs via run_range in this process, through
  /// the same slice/merge path.
  std::string worker_binary;
  /// Concurrent worker processes; 0 = hardware concurrency (min 1).
  unsigned workers = 0;
  /// Contiguous ranges to split the campaign into; 0 = worker count.
  unsigned shards = 0;
  /// A worker that makes no progress (its progress file stops growing)
  /// for this long is killed and its range re-issued.
  std::uint64_t deadline_ms = 30000;
  std::uint64_t poll_interval_ms = 20;
  /// Re-issues per range before degrading to in-process execution. The
  /// dispatcher never aborts the campaign on worker failure: a range
  /// that exhausts its retries falls back to run_range in-process.
  unsigned max_retries = 2;
  /// First re-issue delay; doubles per subsequent retry of that range.
  std::uint64_t retry_backoff_ms = 50;
};

/// What happened operationally (never part of the report: the merged
/// report is byte-identical whatever this says).
struct DispatchStats {
  std::uint64_t spawned = 0;    ///< worker processes forked
  std::uint64_t crashed = 0;    ///< exited nonzero or by signal
  std::uint64_t hung = 0;       ///< killed by the progress deadline
  std::uint64_t corrupt = 0;    ///< exit 0 but unusable slice
  std::uint64_t reissued = 0;   ///< range re-issues (all causes)
  std::uint64_t fallback_ranges = 0;  ///< ranges degraded to in-process
};

/// Fault-tolerant multi-process campaign runner: forks up to
/// `workers` campaign_worker processes over `shards` contiguous trial
/// ranges, watches per-range progress against a deadline, and survives
/// crashed, hung, and garbage-emitting workers by bounded re-issue with
/// backoff — degrading to in-process execution (ultimately N=1) rather
/// than aborting. Failure handling never changes the report: every
/// recovery path re-produces the exact same trials.
///
/// Workers inherit the environment, including the fault-injection
/// hooks the worker binary honours (TMU_WORKER_FAIL / _TOKEN — see
/// tools/campaign_worker.cpp), which is how the dispatcher's recovery
/// paths are tested and CI-gated.
class Dispatcher {
 public:
  explicit Dispatcher(DispatcherOptions opts = {});

  /// Runs the whole campaign and returns the merged report. Throws
  /// std::runtime_error only for environmental failures (work dir or
  /// spec file unwritable, fork impossible AND in-process fallback
  /// disabled by an invalid spec) — never for worker failures.
  Report run(const CampaignSpec& spec);

  const DispatchStats& stats() const { return stats_; }
  unsigned workers() const { return workers_; }

 private:
  DispatcherOptions opts_;
  unsigned workers_;
  DispatchStats stats_;
};

}  // namespace campaign::remote
