#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <exception>
#include <thread>

#include "sim/bytes.hpp"
#include "sim/jsonfmt.hpp"
#include "sim/random.hpp"

namespace campaign {

namespace {

using sim::jsonfmt::append_f;
using sim::jsonfmt::json_escape;

}  // namespace

std::uint64_t derive_trial_seed(std::uint64_t base_seed, std::uint64_t index) {
  // SplitMix64 mixing decorrelates (base_seed, trial index) pairs, so
  // neighbouring trials get unrelated RNG streams.
  std::uint64_t x = base_seed ^ sim::splitmix64(index);
  return sim::splitmix64(x);
}

TrialList::TrialList(const std::vector<Scenario>& scenarios,
                     std::uint64_t base_seed)
    : scenarios_(scenarios), base_seed_(base_seed) {
  first_.reserve(scenarios.size() + 1);
  first_.push_back(0);
  for (const Scenario& sc : scenarios) {
    first_.push_back(first_.back() + sc.trials.size());
  }
}

void TrialList::get(std::size_t i, TrialSpec& out) const {
  // The last scenario starting at or before i; empty scenarios share
  // their start with the next one, so upper_bound skips them.
  const std::size_t s = static_cast<std::size_t>(
      std::upper_bound(first_.begin(), first_.end(), i) - first_.begin() - 1);
  out = scenarios_[s].trials[i - first_[s]];
  if (out.seed == 0) out.seed = derive_trial_seed(base_seed_, i);
}

std::vector<TrialSpec> flatten_trials(const std::vector<Scenario>& scenarios,
                                      std::uint64_t base_seed) {
  const TrialList list(scenarios, base_seed);
  std::vector<TrialSpec> specs(list.size());
  for (std::size_t i = 0; i < specs.size(); ++i) list.get(i, specs[i]);
  return specs;
}

Scenario make_scenario(std::string label, const TrialSpec& proto,
                       std::size_t n) {
  Scenario sc;
  sc.label = std::move(label);
  sc.trials.assign(n, proto);
  return sc;
}

std::uint64_t Report::total_cycles() const {
  std::uint64_t t = 0;
  for (const auto& r : results) t += r.cycles_run;
  return t;
}

namespace {

void append_summary_fields(std::string& out, const ScenarioSummary& sc,
                           const char* indent) {
  // Label is concatenated, not printf'd: it is caller-supplied and may
  // exceed the fixed format buffer.
  append_f(out, "%s\"label\": \"", indent);
  out += json_escape(sc.label);
  out += "\",\n";
  append_f(out, "%s\"topology\": \"", indent);
  out += json_escape(sc.topology);
  out += "\",\n";
  // Hex string: JSON numbers are doubles downstream, the hash is 64-bit.
  append_f(out, "%s\"topology_hash\": \"%016" PRIx64 "\",\n", indent,
           sc.topology_hash);
  append_f(out, "%s\"trials\": %" PRIu64 ",\n", indent, sc.trials);
  append_f(out, "%s\"detected\": %" PRIu64 ",\n", indent, sc.detected);
  append_f(out, "%s\"recovered\": %" PRIu64 ",\n", indent, sc.recovered);
  append_f(out, "%s\"traffic_resumed\": %" PRIu64 ",\n", indent,
           sc.traffic_resumed);
  append_f(out, "%s\"false_positives\": %" PRIu64 ",\n", indent,
           sc.false_positives);
  append_f(out, "%s\"failed_trials\": %" PRIu64 ",\n", indent,
           sc.failed_trials);
  append_f(out, "%s\"timed_out\": %" PRIu64 ",\n", indent, sc.timed_out);
  append_f(out, "%s\"total_cycles\": %" PRIu64 ",\n", indent,
           sc.total_cycles);
  append_f(out, "%s\"total_eval_passes\": %" PRIu64 ",\n", indent,
           sc.total_eval_passes);
  append_f(out, "%s\"latency\": {", indent);
  append_f(out, "\"count\": %" PRIu64 ", ", sc.latency.count());
  append_f(out, "\"mean\": %.6f, ", sc.latency.mean());
  append_f(out, "\"stddev\": %.6f, ", sc.latency.stddev());
  append_f(out, "\"min\": %.0f, ", sc.latency.min());
  append_f(out, "\"max\": %.0f, ", sc.latency.max());
  append_f(out, "\"p50\": %" PRIu64 ", ", sc.latency_hist.percentile(0.50));
  append_f(out, "\"p99\": %" PRIu64 "},\n", sc.latency_hist.percentile(0.99));
  append_f(out, "%s\"metrics\": {\n", indent);
  sc.metrics.append_json(out, std::string(indent) + "  ");
  append_f(out, "\n%s}\n", indent);
}

}  // namespace

std::string Report::to_json() const {
  std::string out;
  out += "{\n";
  append_f(out, "  \"schema\": \"tmu-campaign-report-v3\",\n");
  append_f(out, "  \"base_seed\": %" PRIu64 ",\n", base_seed);
  append_f(out, "  \"total_trials\": %" PRIu64 ",\n", total_trials());
  append_f(out, "  \"total_cycles\": %" PRIu64 ",\n", total_cycles());
  out += "  \"overall\": {\n";
  append_summary_fields(out, overall, "    ");
  out += "  },\n";
  out += "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    out += "    {\n";
    append_summary_fields(out, scenarios[i], "      ");
    out += (i + 1 < scenarios.size()) ? "    },\n" : "    }\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool Report::write_json(const std::string& path) const {
  return sim::bytes::write_file(path, to_json()) == sim::bytes::FileStatus::kOk;
}

Engine::Engine(EngineOptions opts) : opts_(opts) {
  threads_ = opts_.threads != 0 ? opts_.threads
                                : std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;
}

TrialResult run_trial_captured(const TrialFn& fn, const TrialSpec& spec) {
  try {
    return fn(spec);
  } catch (const std::exception& e) {
    TrialResult r;
    r.failed = true;
    r.error = e.what();
    return r;
  } catch (...) {
    TrialResult r;
    r.failed = true;
    r.error = "unknown exception";
    return r;
  }
}

Report Engine::run(const std::vector<Scenario>& scenarios,
                   const TrialFn& fn) const {
  // Empty fn = the standard fault trial, forked from one warm-up per
  // group. The fork cache lives in this TrialFn, so it is scoped to this
  // run() call.
  const TrialFn body = fn ? fn : make_forking_trial_fn();
  const TrialList trials(scenarios, opts_.base_seed);

  Report rep;
  rep.base_seed = opts_.base_seed;
  rep.results.resize(trials.size());
  rep.threads_used = threads_;

  const auto t0 = std::chrono::steady_clock::now();

  // Work-stealing-free sharding: an atomic cursor hands out trial
  // indices; results land in their own slots, so no two workers ever
  // touch the same data and the outcome is schedule-independent.
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    TrialSpec spec;  // reused: each trial is copied in as it is taken
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= trials.size()) return;
      trials.get(i, spec);
      // A failure lands in the trial's own result slot (deterministic at
      // any thread count) and the remaining trials keep running. The
      // scenario summary surfaces it as failed_trials.
      rep.results[i] = run_trial_captured(body, spec);
    }
  };

  if (threads_ <= 1) {
    worker();  // serial path: no thread spawn, same code, same results
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads_);
    for (unsigned t = 0; t < threads_; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  rep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  aggregate_report(scenarios, rep);
  return rep;
}

void aggregate_report(const std::vector<Scenario>& scenarios, Report& rep) {
  // Serial aggregation in trial-index order: floating-point sums are
  // evaluated in one fixed order regardless of which worker ran what.
  rep.scenarios.assign(scenarios.size(), ScenarioSummary{});
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    rep.scenarios[si].label = scenarios[si].label;
    // Topology fingerprint (forward-compat for remote shards): which
    // desc this scenario's trials elaborated. Scenarios are free to mix
    // topologies; the summary then says so instead of guessing.
    // Trials are compared structurally (operator==, allocation-free);
    // the canonical-JSON hash is computed once per scenario.
    const soc::SocDesc* first = nullptr;
    bool mixed = false;
    for (const TrialSpec& t : scenarios[si].trials) {
      if (first == nullptr) {
        first = &t.desc;
      } else if (!(t.desc == *first)) {
        mixed = true;
        break;
      }
    }
    rep.scenarios[si].topology =
        mixed ? "mixed" : (first != nullptr ? first->name : "");
    rep.scenarios[si].topology_hash =
        mixed || first == nullptr ? 0 : first->hash();
  }
  // Results are in global trial-index order: scenario by scenario, each
  // scenario's trials in order.
  std::size_t i = 0;
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    ScenarioSummary& sc = rep.scenarios[si];
    for (const TrialSpec& spec : scenarios[si].trials) {
      const TrialResult& r = rep.results[i++];
      ++sc.trials;
      sc.total_cycles += r.cycles_run;
      sc.total_eval_passes += r.eval_passes;
      sc.metrics.merge(r.metrics);
      if (r.failed) {
        // A captured trial failure contributes nothing but its count: the
        // default-constructed result must not read as a silent pass.
        ++sc.failed_trials;
        continue;
      }
      if (r.timed_out) ++sc.timed_out;
      if (spec.point == fault::FaultPoint::kNone) {
        if (r.detected) ++sc.false_positives;
        continue;
      }
      if (r.detected) {
        ++sc.detected;
        sc.latency.add(static_cast<double>(r.latency));
        sc.latency_hist.add(r.latency);
      }
      if (r.recovered) ++sc.recovered;
      if (r.traffic_resumed) ++sc.traffic_resumed;
    }
  }

  // Campaign-wide summary: pool the per-scenario shards. merge() is
  // exact (Chan et al. for the moments, integer adds for the
  // histogram), and the scenario order is fixed, so this too is
  // identical across thread counts.
  rep.overall = ScenarioSummary{};
  rep.overall.label = "overall";
  for (std::size_t si = 0; si < rep.scenarios.size(); ++si) {
    const ScenarioSummary& sc = rep.scenarios[si];
    if (si == 0) {
      rep.overall.topology = sc.topology;
      rep.overall.topology_hash = sc.topology_hash;
    } else if (sc.topology_hash != rep.overall.topology_hash ||
               sc.topology != rep.overall.topology) {
      rep.overall.topology = "mixed";
      rep.overall.topology_hash = 0;
    }
  }
  for (const ScenarioSummary& sc : rep.scenarios) {
    rep.overall.trials += sc.trials;
    rep.overall.detected += sc.detected;
    rep.overall.recovered += sc.recovered;
    rep.overall.traffic_resumed += sc.traffic_resumed;
    rep.overall.false_positives += sc.false_positives;
    rep.overall.failed_trials += sc.failed_trials;
    rep.overall.timed_out += sc.timed_out;
    rep.overall.total_cycles += sc.total_cycles;
    rep.overall.total_eval_passes += sc.total_eval_passes;
    rep.overall.latency.merge(sc.latency);
    rep.overall.latency_hist.merge(sc.latency_hist);
    rep.overall.metrics.merge(sc.metrics);
  }
}

}  // namespace campaign
