#include "campaign/remote.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/bytes.hpp"
#include "sim/jsonio.hpp"
#include "soc/desc.hpp"
#include "soc/desc_serde.hpp"

// Field lists of the spec and slice schemas (sim/jsonio.hpp), each in
// its type's namespace. The document headers (schema tags, the spec's
// topology table and run-length encoding, the slice's range and
// checksum) are written out by hand below.

namespace sim {

template <typename V>
void fields(V& v, RunningStats& s) {
  // Full internal Welford state, not derived views: from_parts
  // reconstructs the exact stream, so downstream merges are
  // bit-identical to never having serialized at all.
  std::uint64_t count = s.count();
  double mean = s.mean(), m2 = s.m2(), min = s.min(), max = s.max();
  v("count", count);
  v("mean", mean);
  v("m2", m2);
  v("min", min);
  v("max", max);
  if constexpr (V::kReading) {
    s = RunningStats::from_parts(count, mean, m2, min, max);
  }
}

}  // namespace sim

namespace obs {

template <typename V>
void fields(V& v, MetricsSnapshot& m) {
  v.map("counters", m.counters);
  v.map("stats", m.stats);
  v.map("histograms", m.histograms);
}

}  // namespace obs

namespace campaign {

/// A spec trial run's fields after its "count" and "topology" header.
template <typename V>
void fields(V& v, TrialSpec& t) {
  v.object("cfg", t.cfg);
  v.name("point", t.point, fault::FaultPoint::kRReadyStuck, "fault point");
  v.object("traffic", t.traffic);
  v("seed", t.seed);
  v("inject_delay_max", t.inject_delay_max);
  v("detect_budget", t.detect_budget);
  v("soak_cycles", t.soak_cycles);
  v("max_cycles", t.max_cycles);
  // Schema-compatible optional: absent means 0, and specs without a
  // warm-up phase keep emitting byte-identical v1 documents (older
  // readers, with their unknown-key strictness, still accept them).
  if (V::kReading || t.warmup_cycles != 0) {
    v("warmup_cycles", t.warmup_cycles);
  }
  v("exercise_recovery", t.exercise_recovery);
  v.array("trace_links", t.trace_links);
}

/// A slice result's fields after its "index" header.
template <typename V>
void fields(V& v, TrialResult& r) {
  v("failed", r.failed);
  v("error", r.error);
  v("timed_out", r.timed_out);
  v("detected", r.detected);
  v("recovered", r.recovered);
  v("traffic_resumed", r.traffic_resumed);
  v("inject_delay", r.inject_delay);
  v("detect_cycle", r.detect_cycle);
  v("latency", r.latency);
  v("cycles_run", r.cycles_run);
  v("eval_passes", r.eval_passes);
  v("completed_txns", r.completed_txns);
  v("data_mismatches", r.data_mismatches);
  v("error_responses", r.error_responses);
  v.object("metrics", r.metrics);
}

}  // namespace campaign

namespace campaign::remote {

namespace {

using sim::bytes::fnv1a64;
using sim::jsonemit::Emitter;
using sim::jsonio::Reader;
using sim::jsonio::Writer;
using sim::jsonparse::Json;
using sim::jsonparse::ObjReader;

constexpr const char* kSpecPrefix = "CampaignSpec::from_json";
constexpr const char* kSlicePrefix = "ReportSlice::from_json";

[[noreturn]] void fail(const std::string& prefix, const std::string& what) {
  throw std::invalid_argument(prefix + ": " + what);
}

std::uint64_t parse_hex64(const std::string& s, const std::string& prefix,
                          const std::string& where) {
  if (s.size() != 16 ||
      s.find_first_not_of("0123456789abcdef") != std::string::npos) {
    fail(prefix, where + " must be a 16-digit lowercase hex string");
  }
  return std::strtoull(s.c_str(), nullptr, 16);
}

/// The spec's topology table: distinct descs in first-use order, each
/// stored as its canonical JSON (the table key — structural equality via
/// byte equality of canonical documents) plus its FNV fingerprint.
struct TopoTable {
  std::vector<std::string> jsons;
  std::vector<std::uint64_t> hashes;
  std::map<std::string, std::size_t> by_json;
  // One-slot memo: campaign trials overwhelmingly repeat one desc, and
  // structural compare is allocation-free while to_json is not.
  const soc::SocDesc* last_desc = nullptr;
  std::size_t last_idx = 0;

  std::size_t intern(const soc::SocDesc& d) {
    if (last_desc != nullptr && d == *last_desc) return last_idx;
    std::string j = d.to_json();
    const auto [it, inserted] = by_json.try_emplace(std::move(j), jsons.size());
    if (inserted) {
      jsons.push_back(it->first);
      hashes.push_back(fnv1a64(it->first));
    }
    last_desc = &d;
    last_idx = it->second;
    return it->second;
  }
};

TopoTable build_topo_table(const std::vector<Scenario>& scenarios) {
  TopoTable table;
  for (const Scenario& sc : scenarios) {
    for (const TrialSpec& t : sc.trials) table.intern(t.desc);
  }
  return table;
}

}  // namespace

std::uint64_t CampaignSpec::total_trials() const {
  std::uint64_t n = 0;
  for (const Scenario& sc : scenarios) n += sc.trials.size();
  return n;
}

std::string CampaignSpec::to_json() const {
  const TopoTable table = build_topo_table(scenarios);
  Emitter e;
  e.open_obj();
  e.str("schema", kSpecSchema);
  e.u64("base_seed", base_seed);
  e.open_arr("topologies");
  for (std::size_t i = 0; i < table.jsons.size(); ++i) {
    e.open_obj();
    e.hex64("hash", table.hashes[i]);
    // The whole canonical desc document as one escaped string: the spec
    // schema does not re-model topologies, it transports them verbatim
    // (SocDesc::to_json/from_json stay the single source of truth).
    e.str("desc", table.jsons[i]);
    e.close_obj();
  }
  e.close_arr();
  e.open_arr("scenarios");
  // Rebuild the memo per emission pass: intern() below must see the
  // same first-use order the table was built with.
  TopoTable lookup = build_topo_table(scenarios);
  Writer w(e);
  for (const Scenario& sc : scenarios) {
    e.open_obj();
    e.str("label", sc.label);
    e.open_arr("trials");
    // Run-length encoding over consecutive structurally-equal trials:
    // make_scenario(n) campaigns collapse to one entry per scenario.
    for (std::size_t i = 0; i < sc.trials.size();) {
      std::size_t j = i + 1;
      while (j < sc.trials.size() && sc.trials[j] == sc.trials[i]) ++j;
      e.open_obj();
      e.u64("count", j - i);
      e.u64("topology", lookup.intern(sc.trials[i].desc));
      fields(w, const_cast<TrialSpec&>(sc.trials[i]));
      e.close_obj();
      i = j;
    }
    e.close_arr();
    e.close_obj();
  }
  e.close_arr();
  e.close_obj();
  std::string out = std::move(e).take();
  out += '\n';
  return out;
}

CampaignSpec CampaignSpec::from_json(const std::string& json) {
  const Json doc = sim::jsonparse::parse(json, kSpecPrefix);
  ObjReader r(doc, "spec", kSpecPrefix);
  std::string schema;
  r.get("schema", schema);
  if (schema != kSpecSchema) {
    r.fail("spec.schema: expected \"" + std::string(kSpecSchema) + "\", got \"" +
           schema + "\"");
  }
  CampaignSpec spec;
  spec.scenarios.clear();
  r.get_u("base_seed", spec.base_seed);

  std::vector<soc::SocDesc> topologies;
  if (const Json* topos = r.take("topologies")) {
    if (topos->kind != Json::Kind::kArray) {
      r.fail("spec.topologies must be an array");
    }
    for (std::size_t i = 0; i < topos->arr.size(); ++i) {
      const std::string where = "spec.topologies[" + std::to_string(i) + "]";
      ObjReader tr(topos->arr[i], where, kSpecPrefix);
      std::string hash_str, desc_str;
      tr.get("hash", hash_str);
      tr.get("desc", desc_str);
      tr.finish();
      const std::uint64_t declared =
          parse_hex64(hash_str, kSpecPrefix, where + ".hash");
      soc::SocDesc d;
      try {
        d = soc::SocDesc::from_json(desc_str);
      } catch (const std::invalid_argument& e) {
        fail(kSpecPrefix, where + ".desc: " + e.what());
      }
      // The declared hash must match the transported desc: a table
      // entry whose desc was altered (or whose hash was) is rejected
      // here rather than silently producing a different-hash campaign.
      if (d.hash() != declared) {
        fail(kSpecPrefix,
             where + ".hash does not match the desc document it labels");
      }
      topologies.push_back(std::move(d));
    }
  }

  if (const Json* scens = r.take("scenarios")) {
    if (scens->kind != Json::Kind::kArray) {
      r.fail("spec.scenarios must be an array");
    }
    for (std::size_t si = 0; si < scens->arr.size(); ++si) {
      const std::string where = "spec.scenarios[" + std::to_string(si) + "]";
      ObjReader sr(scens->arr[si], where, kSpecPrefix);
      Scenario sc;
      sr.get("label", sc.label);
      if (const Json* trials = sr.take("trials")) {
        if (trials->kind != Json::Kind::kArray) {
          sr.fail(where + ".trials must be an array");
        }
        for (std::size_t ti = 0; ti < trials->arr.size(); ++ti) {
          Reader tr(trials->arr[ti],
                    where + ".trials[" + std::to_string(ti) + "]", kSpecPrefix);
          std::uint64_t count = 1;
          tr.get_u("count", count);
          if (count == 0) tr.fail(tr.ctx("count") + " must be at least 1");
          std::uint64_t topo = 0;
          tr.get_u("topology", topo);
          if (topo >= topologies.size()) {
            tr.fail(tr.ctx("topology") + ": index " + std::to_string(topo) +
                    " out of range (table has " +
                    std::to_string(topologies.size()) + " entries)");
          }
          TrialSpec t;
          t.desc = topologies[topo];
          fields(tr, t);
          tr.finish();
          sc.trials.insert(sc.trials.end(), count, t);
        }
      }
      sr.finish();
      spec.scenarios.push_back(std::move(sc));
    }
  }
  r.finish();
  return spec;
}

std::uint64_t CampaignSpec::hash() const { return fnv1a64(to_json()); }

std::uint64_t CampaignSpec::topologies_hash() const {
  const TopoTable table = build_topo_table(scenarios);
  Emitter e;
  e.open_arr();
  for (const std::uint64_t h : table.hashes) {
    // Reuse the canonical hex form; the enclosing array makes the
    // digest well-defined for zero and many entries alike.
    e.hex64("h", h);
  }
  e.close_arr();
  return fnv1a64(std::move(e).take());
}

namespace {

/// Writes the results array: as the slice's "results" member, or with
/// `key` null standalone at depth 0, which is the checksum input
/// (canonical by construction, so parse -> re-serialize -> compare
/// detects any value-level corruption the JSON grammar itself missed).
void write_results(Emitter& e, const char* key,
                   const std::vector<TrialResult>& results,
                   std::uint64_t begin) {
  Writer w(e);
  e.open_arr(key);
  for (std::size_t i = 0; i < results.size(); ++i) {
    e.open_obj();
    e.u64("index", begin + i);
    fields(w, const_cast<TrialResult&>(results[i]));
    e.close_obj();
  }
  e.close_arr();
}

std::uint64_t results_checksum(const std::vector<TrialResult>& results,
                               std::uint64_t begin) {
  Emitter e;
  write_results(e, nullptr, results, begin);
  return fnv1a64(std::move(e).take());
}

}  // namespace

std::string ReportSlice::to_json() const {
  Emitter e;
  e.open_obj();
  e.str("schema", kSliceSchema);
  e.hex64("spec_hash", spec_hash);
  e.hex64("topology_hash", topology_hash);
  e.u64("begin", begin);
  e.u64("end", end);
  write_results(e, "results", results, begin);
  e.hex64("checksum", results_checksum(results, begin));
  e.close_obj();
  std::string out = std::move(e).take();
  out += '\n';
  return out;
}

ReportSlice ReportSlice::from_json(const std::string& json) {
  const Json doc = sim::jsonparse::parse(json, kSlicePrefix);
  ObjReader r(doc, "slice", kSlicePrefix);
  std::string schema;
  r.get("schema", schema);
  if (schema != kSliceSchema) {
    r.fail("slice.schema: expected \"" + std::string(kSliceSchema) +
           "\", got \"" + schema + "\"");
  }
  ReportSlice s;
  std::string hex;
  r.get("spec_hash", hex);
  s.spec_hash = parse_hex64(hex, kSlicePrefix, "slice.spec_hash");
  hex.clear();
  r.get("topology_hash", hex);
  s.topology_hash = parse_hex64(hex, kSlicePrefix, "slice.topology_hash");
  r.get_u("begin", s.begin);
  r.get_u("end", s.end);
  if (s.begin > s.end) r.fail("slice.begin exceeds slice.end");
  const Json* results = r.take("results");
  if (results == nullptr || results->kind != Json::Kind::kArray) {
    r.fail("slice.results must be present and an array");
  }
  if (results->arr.size() != s.end - s.begin) {
    r.fail("slice.results holds " + std::to_string(results->arr.size()) +
           " results for range [" + std::to_string(s.begin) + ", " +
           std::to_string(s.end) + ")");
  }
  s.results.resize(results->arr.size());
  for (std::size_t i = 0; i < results->arr.size(); ++i) {
    Reader rr(results->arr[i], "slice.results[" + std::to_string(i) + "]",
              kSlicePrefix);
    std::uint64_t index = ~std::uint64_t{0};
    rr.get_u("index", index);
    if (index != s.begin + i) {
      rr.fail(rr.ctx("index") + ": expected " + std::to_string(s.begin + i) +
              ", got " + std::to_string(index));
    }
    fields(rr, s.results[i]);
    rr.finish();
  }
  std::string checksum_hex;
  r.get("checksum", checksum_hex);
  const std::uint64_t declared =
      parse_hex64(checksum_hex, kSlicePrefix, "slice.checksum");
  r.finish();
  // Verify by reconstruction: re-serialize what we parsed and compare
  // fingerprints. Any value the parser accepted but that differs from
  // what the worker serialized (bit-flipped number, truncated name)
  // changes the canonical bytes and is caught here.
  if (results_checksum(s.results, s.begin) != declared) {
    r.fail("slice.checksum mismatch: results were altered in transit");
  }
  return s;
}

ReportSlice run_range(const CampaignSpec& spec, std::uint64_t begin,
                      std::uint64_t end, const ProgressFn& progress,
                      const TrialFn& fn) {
  const TrialList trials(spec.scenarios, spec.base_seed);
  if (begin > end || end > trials.size()) {
    throw std::invalid_argument(
        "campaign::remote::run_range: range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") outside campaign of " +
        std::to_string(trials.size()) + " trials");
  }
  ReportSlice s;
  s.spec_hash = spec.hash();
  s.topology_hash = spec.topologies_hash();
  s.begin = begin;
  s.end = end;
  s.results.resize(end - begin);
  // The Engine's rule: an empty fn forks each warm-up group's trials
  // from one warm-up, scoped to this range.
  const TrialFn body = fn ? fn : make_forking_trial_fn();
  TrialSpec trial;
  for (std::uint64_t i = begin; i < end; ++i) {
    if (progress) progress(i);
    trials.get(i, trial);
    TrialResult& out = s.results[i - begin];
    out = run_trial_captured(body, trial);
    // Trace buffers do not ride slices (they are not part of the JSON
    // report; shipping them would dwarf the results).
    out.traces.clear();
  }
  if (progress) progress(end);
  return s;
}

Report merge_slices(const CampaignSpec& spec,
                    const std::vector<ReportSlice>& slices) {
  constexpr const char* kPrefix = "campaign::remote::merge_slices";
  const std::uint64_t total = spec.total_trials();
  const std::uint64_t spec_hash = spec.hash();
  const std::uint64_t topo_hash = spec.topologies_hash();

  std::vector<const ReportSlice*> order;
  order.reserve(slices.size());
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const ReportSlice& s = slices[i];
    const std::string who = "slice " + std::to_string(i) + " [" +
                            std::to_string(s.begin) + ", " +
                            std::to_string(s.end) + ")";
    if (s.spec_hash != spec_hash) {
      fail(kPrefix, who + " was produced by a different campaign spec");
    }
    if (s.topology_hash != topo_hash) {
      fail(kPrefix, who + " ran different topologies than this spec");
    }
    if (s.begin > s.end || s.end > total) {
      fail(kPrefix, who + " is outside the campaign of " +
                        std::to_string(total) + " trials");
    }
    if (s.results.size() != s.end - s.begin) {
      fail(kPrefix, who + " holds " + std::to_string(s.results.size()) +
                        " results for its range");
    }
    order.push_back(&s);
  }
  // Key on (begin, end) so an empty slice sorts before the non-empty
  // one starting at the same trial and the tiling walk accepts both.
  std::sort(order.begin(), order.end(),
            [](const ReportSlice* a, const ReportSlice* b) {
              return a->begin != b->begin ? a->begin < b->begin
                                          : a->end < b->end;
            });
  std::uint64_t cur = 0;
  for (const ReportSlice* s : order) {
    if (s->begin != cur) {
      fail(kPrefix,
           s->begin > cur
               ? "trials [" + std::to_string(cur) + ", " +
                     std::to_string(s->begin) + ") are covered by no slice"
               : "slices overlap at trial " + std::to_string(s->begin));
    }
    cur = s->end;
  }
  if (cur != total) {
    fail(kPrefix, "trials [" + std::to_string(cur) + ", " +
                      std::to_string(total) + ") are covered by no slice");
  }

  Report rep;
  rep.base_seed = spec.base_seed;
  rep.results.resize(total);
  for (const ReportSlice* s : order) {
    std::copy(s->results.begin(), s->results.end(),
              rep.results.begin() + static_cast<std::ptrdiff_t>(s->begin));
  }
  // The one aggregation code path (shared with Engine::run): serial,
  // global index order, exact merges — this is where "byte-identical to
  // the single-process run" comes from.
  aggregate_report(spec.scenarios, rep);
  return rep;
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::string read_file(const fs::path& p) {
  std::string text;
  if (sim::bytes::read_file(p.string(), text) != sim::bytes::FileStatus::kOk) {
    throw std::runtime_error("campaign::remote: cannot read " + p.string());
  }
  return text;
}

std::uintmax_t file_size_or_zero(const fs::path& p) {
  std::error_code ec;
  const std::uintmax_t n = fs::file_size(p, ec);
  return ec ? 0 : n;
}

/// A trial range queued for execution, with its retry history.
struct RangeTask {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  unsigned attempt = 0;           ///< how many workers already failed it
  Clock::time_point not_before{};  ///< backoff gate for the next spawn
};

/// One live worker process and the files the dispatcher watches.
struct Child {
  pid_t pid = -1;
  RangeTask task;
  fs::path out;
  fs::path progress;
  Clock::time_point last_progress{};
  std::uintmax_t last_size = 0;
};

std::vector<RangeTask> shard_ranges(std::uint64_t total, unsigned shards) {
  std::vector<RangeTask> out;
  if (total == 0) return out;
  const std::uint64_t n = std::max<std::uint64_t>(1, shards);
  const std::uint64_t chunk = (total + n - 1) / n;
  for (std::uint64_t b = 0; b < total; b += chunk) {
    out.push_back(RangeTask{b, std::min(total, b + chunk)});
  }
  return out;
}

pid_t spawn_worker(const std::string& binary, const fs::path& spec_path,
                   const RangeTask& t, const fs::path& out,
                   const fs::path& progress) {
  std::vector<std::string> args = {binary,
                                   "--spec",
                                   spec_path.string(),
                                   "--begin",
                                   std::to_string(t.begin),
                                   "--end",
                                   std::to_string(t.end),
                                   "--out",
                                   out.string(),
                                   "--progress",
                                   progress.string()};
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    execv(binary.c_str(), argv.data());
    _exit(127);  // exec failed: surfaces as a crashed worker
  }
  return pid;  // -1 on fork failure; caller degrades to in-process
}

/// A fresh scratch directory for spec/slice/progress files under the
/// system temp dir, removed with everything in it.
struct WorkDir {
  fs::path path;

  WorkDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "tmu_campaign_XXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error(
          "campaign::remote::Dispatcher: cannot create work dir under " +
          fs::temp_directory_path().string());
    }
    path = tmpl;
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path, ec);  // best effort; never throws from a dtor
  }
};

}  // namespace

Dispatcher::Dispatcher(DispatcherOptions opts) : opts_(std::move(opts)) {
  workers_ = opts_.workers != 0 ? opts_.workers
                                : std::thread::hardware_concurrency();
  if (workers_ == 0) workers_ = 1;
}

Report Dispatcher::run(const CampaignSpec& spec) {
  stats_ = DispatchStats{};
  const std::uint64_t total = spec.total_trials();
  const unsigned shard_count =
      opts_.shards != 0 ? opts_.shards : workers_;
  std::vector<RangeTask> ranges = shard_ranges(total, shard_count);
  std::vector<ReportSlice> slices;
  slices.reserve(ranges.size());

  // Pure in-process mode: no worker binary configured (or an empty
  // campaign). Same slice -> merge path, no processes — this is also
  // the unit the dispatcher degrades to per-range on retry exhaustion.
  if (opts_.worker_binary.empty() || total == 0) {
    for (const RangeTask& t : ranges) {
      slices.push_back(run_range(spec, t.begin, t.end));
    }
    return merge_slices(spec, slices);
  }

  const WorkDir dir;
  const fs::path spec_path = dir.path / "spec.json";
  if (sim::bytes::write_file(spec_path.string(), spec.to_json()) !=
      sim::bytes::FileStatus::kOk) {
    throw std::runtime_error("campaign::remote: cannot write " +
                             spec_path.string());
  }
  const std::uint64_t spec_hash = spec.hash();

  std::deque<RangeTask> pending(ranges.begin(), ranges.end());
  std::vector<Child> running;
  std::uint64_t seq = 0;  // distinct file names across attempts

  // A failed range either re-queues with exponential backoff or, after
  // max_retries re-issues, runs in-process right here — the campaign
  // completes whatever the workers do (ultimately N=1, this process).
  const auto requeue = [&](RangeTask t) {
    ++t.attempt;
    if (t.attempt > opts_.max_retries) {
      slices.push_back(run_range(spec, t.begin, t.end));
      ++stats_.fallback_ranges;
      return;
    }
    ++stats_.reissued;
    const std::uint64_t backoff =
        opts_.retry_backoff_ms * (std::uint64_t{1} << (t.attempt - 1));
    t.not_before = Clock::now() + std::chrono::milliseconds(backoff);
    pending.push_back(t);
  };

  while (!pending.empty() || !running.empty()) {
    // Spawn phase: fill free worker slots with ready (backoff-elapsed)
    // ranges. A fork failure degrades that range to in-process.
    const Clock::time_point now = Clock::now();
    for (auto it = pending.begin();
         it != pending.end() && running.size() < workers_;) {
      if (it->not_before > now) {
        ++it;
        continue;
      }
      const RangeTask t = *it;
      it = pending.erase(it);
      ++seq;
      Child c;
      c.task = t;
      c.out = dir.path / ("slice_" + std::to_string(seq) + ".json");
      c.progress = dir.path / ("progress_" + std::to_string(seq) + ".log");
      c.pid = spawn_worker(opts_.worker_binary, spec_path, t, c.out,
                           c.progress);
      if (c.pid < 0) {
        slices.push_back(run_range(spec, t.begin, t.end));
        ++stats_.fallback_ranges;
        continue;
      }
      ++stats_.spawned;
      c.last_progress = Clock::now();
      c.last_size = 0;
      running.push_back(std::move(c));
    }

    // Poll phase: reap exits, validate their slices, enforce the
    // progress deadline on the rest.
    for (auto it = running.begin(); it != running.end();) {
      int status = 0;
      const pid_t reaped = waitpid(it->pid, &status, WNOHANG);
      if (reaped == it->pid) {
        const Child c = std::move(*it);
        it = running.erase(it);
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          // Exit 0 is a claim, not proof: the slice must parse, pass
          // its own checksum, and match the range and spec we asked
          // for. Anything less counts as a corrupt worker.
          try {
            ReportSlice s = ReportSlice::from_json(read_file(c.out));
            if (s.begin != c.task.begin || s.end != c.task.end) {
              throw std::invalid_argument("slice range mismatch");
            }
            if (s.spec_hash != spec_hash) {
              throw std::invalid_argument("slice spec mismatch");
            }
            slices.push_back(std::move(s));
            continue;
          } catch (const std::exception&) {
            ++stats_.corrupt;
            requeue(c.task);
            continue;
          }
        }
        ++stats_.crashed;
        requeue(c.task);
        continue;
      }
      // Still running: progress is the worker's heartbeat — the file
      // growing resets the deadline; silence past it means hung.
      const Clock::time_point poll_now = Clock::now();
      const std::uintmax_t size = file_size_or_zero(it->progress);
      if (size != it->last_size) {
        it->last_size = size;
        it->last_progress = poll_now;
        ++it;
        continue;
      }
      if (poll_now - it->last_progress >
          std::chrono::milliseconds(opts_.deadline_ms)) {
        kill(it->pid, SIGKILL);
        waitpid(it->pid, &status, 0);
        ++stats_.hung;
        const Child c = std::move(*it);
        it = running.erase(it);
        requeue(c.task);
        continue;
      }
      ++it;
    }

    if (!pending.empty() || !running.empty()) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts_.poll_interval_ms));
    }
  }

  return merge_slices(spec, slices);
}

}  // namespace campaign::remote
