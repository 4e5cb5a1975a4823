// Performance ledger driver: runs one named workload through the
// simulator's public API for a fixed wall-clock budget and prints its
// end-to-end metrics (untraced run) or its per-layer split (traced run)
// as one JSON object on the last line of stdout.
//
//   perfledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--expect <hex>] [--spans <path>] [--commit <id>]
//              [--threads <n>] [--fingerprint-only]
//
// Every rate is steady-clock wall time. A workload repeats a fixed unit
// of work (a "rep": one elaborated netlist run for a fixed cycle count,
// or one whole fault campaign) until the budget is spent, and reports
// the fastest execution of each timed piece (see FastestPieces). Each
// rep's simulated outcome is hashed into a fingerprint; every rep of a
// run must agree, and --expect pins it. --threads overrides the campaign
// pool size, to check that the fingerprint does not depend on it.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "axi/crossbar.hpp"
#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "campaign/campaign.hpp"
#include "fault/injector.hpp"
#include "sim/kernel.hpp"
#include "sim/logger.hpp"
#include "snapshot/snapshot.hpp"
#include "soc/builder.hpp"
#include "soc/llc.hpp"
#include "soc/topologies.hpp"
#include "spans.hpp"
#include "tmu/tmu.hpp"

namespace {

using ledger::Clock;
using ledger::Scope;
using ledger::seconds_between;
using ledger::SpanLog;

// ---------------------------------------------------------------------
// Small helpers: statistics, seeds, hashing, output
// ---------------------------------------------------------------------

/// Nearest-rank quantile, p in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// The fastest execution seen of each piece of identical work. Every rep
/// of a run repeats the same work (same seed, same cycles), so piece k
/// of one rep is piece k of every other; the sum of the fastest times is
/// one rep's time with host interference filtered out. Interference from
/// other tenants of a shared host only ever slows a piece, so the
/// fastest execution tracks the code's own speed (min-of-N per piece).
class FastestPieces {
 public:
  void add(std::size_t k, double seconds) {
    if (k >= best_.size()) {
      best_.resize(k + 1, std::numeric_limits<double>::infinity());
    }
    best_[k] = std::min(best_[k], seconds);
  }
  double total() const {
    double t = 0.0;
    for (const double b : best_) t += b;
    return t;
  }

 private:
  std::vector<double> best_;
};

/// SplitMix64 finalizer: the ledger derives every simulated seed from
/// --seed through this, salted per use.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return mix64(seed ^ mix64(salt));
}

/// FNV-1a 64 over the simulated outcome, one field at a time.
class Fingerprint {
 public:
  template <typename T>
  void add(T v) {
    const auto x = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(x >> (8 * i)));
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001B3ull;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The CPUs this process may run on. A workload moves to the next `width`
/// of them (its thread count) before every rep: on a shared host one CPU
/// can stay slowed by a co-tenant for longer than a whole run, and
/// spreading reps across CPUs lets the fastest-piece timing find
/// unhindered ones. Threads a rep starts inherit the set.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
  }
  void pin(std::size_t rep, std::size_t width = 1) const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t j = 0; j < std::min(width, cpus_.size()); ++j) {
      CPU_SET(cpus_[(rep * width + j) % cpus_.size()], &set);
    }
    sched_setaffinity(0, sizeof set, &set);  // best effort
  }

 private:
  std::vector<int> cpus_;
};

/// Ordered metric list, printed as the result's "metrics" object.
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + rows_[i].name + "\": {\"value\": ";
      std::snprintf(buf, sizeof buf, "%.17g", rows_[i].value);
      out += buf;
      out += ", \"unit\": \"";
      out += rows_[i].unit;
      out += "\"}";
    }
    return out + "}";
  }
  void print_table() const {
    for (const Row& r : rows_) {
      std::printf("  %-34s %16.6g %s\n", r.name.c_str(), r.value, r.unit);
    }
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

/// Operations attempted/failed plus the run's fingerprint agreement.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;
  bool have_fingerprint = false;

  /// Every rep of one run simulates the same inputs, so every rep must
  /// produce the same fingerprint; a mismatch fails the whole run.
  void rep_fingerprint(std::uint64_t fp) {
    if (!have_fingerprint) {
      fingerprint = fp;
      have_fingerprint = true;
    } else if (fp != fingerprint) {
      correct = false;
      std::fprintf(stderr, "perfledger: rep fingerprint %s != first rep %s\n",
                   hex64(fp).c_str(), hex64(fingerprint).c_str());
    }
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expect;
  std::string spans_path;
  std::string commit = "unknown";
  unsigned threads = 0;
  bool fingerprint_only = false;
};

// The end-to-end metrics every workload reports (untraced run).
struct EndToEnd {
  double sim_cycles_per_s = 0.0;
  double trials_per_s = 0.0;
  double setup_s = 0.0;
};

void set_end_to_end(Metrics& m, const EndToEnd& e) {
  m.set("sim_cycles_per_s", e.sim_cycles_per_s, "cycles/s");
  m.set("trials_per_s", e.trials_per_s, "1/s");
  m.set("setup_s", e.setup_s, "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
}

// The per-layer metrics every workload reports (traced run); layers a
// workload does not exercise read 0.
struct Layers {
  double ns_per_cycle_p50 = 0, ns_per_cycle_p99 = 0, evals_per_cycle = 0,
         ns_per_eval = 0, ns_per_module_cycle = 0;
  double wire_writes_per_cycle = 0, wakeups_per_cycle = 0,
         drains_per_cycle = 0, fanout_edges = 0, dirty_depth_mean = 0;
  std::map<std::string, double> kind_evals_per_cycle;
  double profiler_overhead_frac = 0, trace_overhead_frac = 0;
  double build_ms = 0;
  double capture_ms = 0, restore_ms = 0, payload_kb = 0;
  double trial_ms_p50 = 0, trial_ms_p99 = 0, finish_ms = 0, warmup_ms = 0,
         sim_cycles_per_trial = 0, parallel_efficiency = 0, tail_ms = 0;
};

const char* const kKinds[] = {"axi.xbar_shard", "axi.memory",
                              "axi.traffic_gen", "tmu.guard",
                              "fault.injector", "soc.llc"};

void set_layers(Metrics& m, const Layers& l) {
  m.set("sim.ns_per_cycle.p50", l.ns_per_cycle_p50, "ns");
  m.set("sim.ns_per_cycle.p99", l.ns_per_cycle_p99, "ns");
  m.set("sim.evals_per_cycle", l.evals_per_cycle, "count");
  m.set("sim.ns_per_eval", l.ns_per_eval, "ns");
  m.set("sim.ns_per_module_cycle", l.ns_per_module_cycle, "ns");
  m.set("sched.wire_writes_per_cycle", l.wire_writes_per_cycle, "count");
  m.set("sched.wakeups_per_cycle", l.wakeups_per_cycle, "count");
  m.set("sched.drains_per_cycle", l.drains_per_cycle, "count");
  m.set("sched.fanout_edges", l.fanout_edges, "count");
  m.set("sched.dirty_depth.mean", l.dirty_depth_mean, "count");
  for (const char* k : kKinds) {
    const auto it = l.kind_evals_per_cycle.find(k);
    m.set(std::string(k) + ".evals_per_cycle",
          it == l.kind_evals_per_cycle.end() ? 0.0 : it->second, "count");
  }
  m.set("obs.profiler_overhead_frac", l.profiler_overhead_frac, "frac");
  m.set("trace.overhead_frac", l.trace_overhead_frac, "frac");
  m.set("soc.build_ms", l.build_ms, "ms");
  m.set("snapshot.capture_ms", l.capture_ms, "ms");
  m.set("snapshot.restore_ms", l.restore_ms, "ms");
  m.set("snapshot.payload_kb", l.payload_kb, "KiB");
  m.set("campaign.trial_ms.p50", l.trial_ms_p50, "ms");
  m.set("campaign.trial_ms.p99", l.trial_ms_p99, "ms");
  m.set("campaign.finish_ms", l.finish_ms, "ms");
  m.set("campaign.warmup_ms", l.warmup_ms, "ms");
  m.set("campaign.sim_cycles_per_trial", l.sim_cycles_per_trial, "count");
  m.set("campaign.parallel_efficiency", l.parallel_efficiency, "frac");
  m.set("campaign.tail_ms", l.tail_ms, "ms");
}

// ---------------------------------------------------------------------
// Simulation workloads: grid_busy, cheshire_busy, cheshire_idle
// ---------------------------------------------------------------------

struct SimWorkload {
  const char* name;
  std::uint64_t rep_cycles;  ///< fixed per rep: part of the fingerprint
  soc::SocDesc (*make)(std::uint64_t seed);
  bool busy;  ///< carries traffic, so per-eval cost is meaningful
};

/// 32 generators into a 32x24 sharded crossbar over memories; the first
/// 8 issue random traffic at 25% duty (grid_desc's own traffic config).
soc::SocDesc make_grid_busy(std::uint64_t seed) {
  soc::SocDesc d = soc::grid_desc(32, 24, 8);
  d.policy = sim::sched::SchedPolicy::kEventDriven;
  for (std::size_t i = 0; i < d.managers.size(); ++i) {
    d.managers[i].seed = derive_seed(seed, i);
  }
  return d;
}

const soc::SubordinateDesc& subordinate(const soc::SocDesc& d,
                                        const std::string& name) {
  for (const soc::SubordinateDesc& s : d.subordinates) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("perfledger: desc '" + d.name +
                              "' has no subordinate '" + name + "'");
}

/// Random traffic whose bursts stay inside [s.base, s.base + bytes).
axi::RandomTrafficConfig random_into(const soc::SubordinateDesc& s, double p,
                                     axi::Addr bytes) {
  axi::RandomTrafficConfig rc;
  rc.enabled = true;
  rc.p_new_txn = p;
  rc.addr_min = s.base;
  // Room for the longest burst (len_max + 1 beats of 2^size bytes).
  const axi::Addr burst = (axi::Addr{rc.len_max} + 1) << rc.size;
  rc.addr_max = s.base + std::min(bytes, s.size) - burst;
  return rc;
}

soc::SocDesc make_cheshire(std::uint64_t seed, bool busy) {
  tmu::TmuConfig cfg;
  cfg.adaptive.enabled = true;
  soc::SocDesc d = soc::cheshire_desc(cfg);
  d.policy = sim::sched::SchedPolicy::kEventDriven;
  const soc::SubordinateDesc& dram = subordinate(d, "dram");
  const soc::SubordinateDesc& periph = subordinate(d, "periph");
  // The DRAM working set is the LLC's capacity, with one transaction in
  // flight per manager: the LLC model serves a queued hit from a line
  // evicted after the hit was accepted, and lets a miss overtake a queued
  // hit of the same ID, and both read back as data mismatches.
  axi::RandomTrafficConfig to_dram =
      random_into(dram, 0.2, axi::Addr{dram.llc_cfg.num_lines} * 64);
  to_dram.max_outstanding = 1;
  const axi::RandomTrafficConfig to_periph =
      random_into(periph, 0.1, 0x1'0000);
  for (std::size_t i = 0; i < d.managers.size(); ++i) {
    soc::ManagerDesc& m = d.managers[i];
    m.seed = derive_seed(seed, i);
    if (!busy) continue;
    if (m.name == "cva6_0" || m.name == "idma") {
      m.traffic = to_dram;
    } else if (m.name == "cva6_1") {
      m.traffic = to_periph;
    }
  }
  return d;
}
soc::SocDesc make_cheshire_busy(std::uint64_t seed) {
  return make_cheshire(seed, true);
}
soc::SocDesc make_cheshire_idle(std::uint64_t seed) {
  return make_cheshire(seed, false);
}

const SimWorkload kSimWorkloads[] = {
    {"grid_busy", 10'000, make_grid_busy, true},
    {"cheshire_busy", 60'000, make_cheshire_busy, true},
    {"cheshire_idle", 600'000, make_cheshire_idle, false},
};

/// How a rep runs: untraced (profiler on, the default), traced (spans
/// around the build and every chunk of cycles), or untraced with the
/// scheduler profiler off.
enum class RepMode { kUntraced, kTraced, kProfilerOff };

struct SimRep {
  std::uint64_t fingerprint = 0;
  std::uint64_t txns = 0;
  std::uint64_t failed_txns = 0;
  std::uint64_t detections = 0;
};

/// Hashes what the rep simulated: every traffic generator's completion
/// records, data mismatches and error responses, and every guard's fault
/// log. Effort counters (evals, scheduler stats) stay out on purpose.
void sim_outcome(soc::Soc& soc, SimRep& rep) {
  Fingerprint fp;
  fp.add(soc.sim().cycle());
  for (const soc::ManagerDesc& md : soc.desc().managers) {
    auto* gen = dynamic_cast<axi::TrafficGenerator*>(soc.find(md.name));
    if (gen == nullptr) continue;
    fp.add(md.name);
    fp.add(gen->records().size());
    for (const axi::TxnRecord& r : gen->records()) {
      fp.add(r.desc.is_write);
      fp.add(r.desc.id);
      fp.add(r.desc.addr);
      fp.add(r.desc.len);
      fp.add(r.desc.size);
      fp.add(static_cast<unsigned>(r.desc.burst));
      fp.add(r.issue_cycle);
      fp.add(r.accept_cycle);
      fp.add(r.complete_cycle);
      fp.add(static_cast<unsigned>(r.resp));
    }
    fp.add(gen->data_mismatches());
    fp.add(gen->error_responses());
    rep.txns += gen->records().size();
    rep.failed_txns += gen->data_mismatches() + gen->error_responses();
  }
  soc::visit_guards(soc.desc(), [&](const soc::GuardDesc& g) {
    const tmu::Tmu& t = soc.get<tmu::Tmu>(g.name);
    fp.add(g.name);
    fp.add(t.fault_log().size());
    for (const tmu::FaultRecord& f : t.fault_log()) {
      fp.add(f.cycle);
      fp.add(f.is_write);
      fp.add(static_cast<unsigned>(f.kind));
      fp.add(f.phase_valid);
      fp.add(f.phase);
      fp.add(f.id);
      fp.add(f.tid);
      fp.add(f.addr);
      fp.add(f.elapsed);
      fp.add(f.budget);
    }
    fp.add(t.fault_log_dropped());
    rep.detections += t.fault_log().size() + t.fault_log_dropped();
  });
  rep.fingerprint = fp.value();
}

/// Module kind for the per-kind eval split, from the public module types;
/// crossbar shards are the submodules registered under a crossbar's name.
std::map<std::string, std::string> module_kinds(const sim::Simulator& s) {
  std::map<std::string, std::string> kind;
  std::vector<std::string> xbar_prefixes;
  for (sim::Module* m : s.modules()) {
    const std::string& n = m->name();
    const char* k = "other";
    if (dynamic_cast<axi::TrafficGenerator*>(m)) {
      k = "axi.traffic_gen";
    } else if (dynamic_cast<axi::MemorySubordinate*>(m)) {
      k = "axi.memory";
    } else if (dynamic_cast<tmu::Tmu*>(m)) {
      k = "tmu.guard";
    } else if (dynamic_cast<fault::FaultInjector*>(m)) {
      k = "fault.injector";
    } else if (dynamic_cast<soc::LastLevelCache*>(m)) {
      k = "soc.llc";
    } else if (dynamic_cast<axi::Crossbar*>(m)) {
      k = "axi.xbar";
      xbar_prefixes.push_back(n + ".");
    } else {
      for (const std::string& p : xbar_prefixes) {
        if (n.compare(0, p.size(), p) == 0) k = "axi.xbar_shard";
      }
    }
    kind[n] = k;
  }
  return kind;
}

/// Effort counters of one traced rep, read after it ran. Deterministic
/// for a deterministic run, so the last traced rep stands for all.
void read_sim_counters(const soc::Soc& soc, std::uint64_t cycles, Layers& l) {
  const sim::Simulator& s = soc.sim();
  const double c = static_cast<double>(cycles);
  l.evals_per_cycle = static_cast<double>(s.module_evals()) / c;
  const sim::sched::SchedStats& st = s.sched_stats();
  l.wire_writes_per_cycle = static_cast<double>(st.wire_writes) / c;
  l.wakeups_per_cycle = static_cast<double>(st.wakeups) / c;
  l.drains_per_cycle = static_cast<double>(st.drains) / c;
  l.fanout_edges = static_cast<double>(st.edges);
  const sim::sched::SchedProfile prof = s.sched_profile();
  double depth_sum = 0.0, depth_n = 0.0;
  for (const auto& [v, n] : prof.dirty_depth.bins()) {
    depth_sum += static_cast<double>(v) * static_cast<double>(n);
    depth_n += static_cast<double>(n);
  }
  l.dirty_depth_mean = ratio(depth_sum, depth_n);
  const std::map<std::string, std::string> kinds = module_kinds(s);
  l.kind_evals_per_cycle.clear();
  for (const sim::sched::ModuleProfile& mp : prof.modules) {
    const auto it = kinds.find(mp.name);
    const std::string k = it == kinds.end() ? "other" : it->second;
    l.kind_evals_per_cycle[k] += static_cast<double>(mp.evals) / c;
  }
}

struct SimTraceAcc {
  std::vector<double> chunk_ns_per_cycle;
  std::vector<double> build_ms;
  std::size_t modules = 0;
};

/// A rep runs its cycles as this many equal chunks, each timed on its own.
constexpr std::uint64_t kChunksPerRep = 100;
/// Netlists a rep elaborates, each timed; the last one runs.
constexpr int kBuildsPerRep = 8;

/// Per rep kind: the fastest execution of each chunk and of the build.
struct SimTimes {
  FastestPieces chunks;
  FastestPieces build;
};

SimRep run_sim_rep(const SimWorkload& w, std::uint64_t seed, RepMode mode,
                   SpanLog* log, std::uint32_t parent, SimTimes& times,
                   SimTraceAcc* acc, Layers* layers) {
  SimRep rep;
  const char* rep_name = mode == RepMode::kTraced      ? "rep.traced"
                         : mode == RepMode::kUntraced  ? "rep.untraced"
                                                       : "rep.profiler_off";
  Scope rep_span(log, parent, rep_name);
  // Spans below the rep only in traced mode.
  SpanLog* inner = mode == RepMode::kTraced ? log : nullptr;

  std::unique_ptr<soc::Soc> soc;
  for (int b = 0; b < kBuildsPerRep; ++b) {
    soc.reset();
    const auto t0 = Clock::now();
    {
      Scope s(inner, rep_span.id(), "build");
      soc = soc::SocBuilder::build(w.make(seed));
    }
    const double dt = seconds_between(t0, Clock::now());
    times.build.add(0, dt);
    if (mode == RepMode::kTraced) acc->build_ms.push_back(dt * 1e3);
  }
  if (mode == RepMode::kProfilerOff) soc->sim().set_sched_profiling(false);

  const std::uint64_t chunk = w.rep_cycles / kChunksPerRep;
  for (std::uint64_t k = 0; k < kChunksPerRep; ++k) {
    const auto c0 = Clock::now();
    {
      Scope c(inner, rep_span.id(), "chunk");
      soc->sim().run(chunk);
    }
    const double dt = seconds_between(c0, Clock::now());
    times.chunks.add(k, dt);
    if (mode == RepMode::kTraced) {
      acc->chunk_ns_per_cycle.push_back(dt * 1e9 / static_cast<double>(chunk));
    }
  }
  sim_outcome(*soc, rep);
  if (mode == RepMode::kTraced) {
    acc->modules = soc->sim().modules().size();
    read_sim_counters(*soc, w.rep_cycles, *layers);
  }
  return rep;
}

void run_sim_workload(const SimWorkload& w, const Options& opt, SpanLog* log,
                      Outcome& out, Metrics& metrics) {
  Scope root(log, 0, w.name);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  // Rep kinds cycle so every kind sees the same drift in host speed.
  const std::vector<RepMode> cycle =
      opt.trace ? std::vector<RepMode>{RepMode::kUntraced, RepMode::kTraced,
                                       RepMode::kProfilerOff}
                : std::vector<RepMode>{RepMode::kUntraced};
  std::map<RepMode, SimTimes> times;
  SimTraceAcc acc;
  Layers layers;
  const CpuRotation cpus;
  std::size_t i = 0;
  do {
    const RepMode mode = cycle[i % cycle.size()];
    // Every rep kind visits every CPU: rotate once per full cycle of kinds.
    cpus.pin(i / cycle.size());
    const SimRep rep = run_sim_rep(w, opt.seed, mode, log, root.id(),
                                   times[mode], &acc, &layers);
    out.rep_fingerprint(rep.fingerprint);
    // One operation per completed transaction, plus the rep itself: a
    // healthy run whose guards flag anything has failed.
    out.attempted += rep.txns + 1;
    out.failed += rep.failed_txns + (rep.detections != 0 ? 1 : 0);
    ++i;
    if (opt.fingerprint_only) return;
  } while (Clock::now() < deadline || i < cycle.size());

  const double cycles = static_cast<double>(w.rep_cycles);
  const auto rate = [&](RepMode m) {
    return cycles / times[m].chunks.total();
  };
  const SimTimes& base = times[RepMode::kUntraced];
  const EndToEnd e{rate(RepMode::kUntraced),
                   1.0 / (base.build.total() + base.chunks.total()),
                   base.build.total()};
  if (!opt.trace) {
    set_end_to_end(metrics, e);
    return;
  }
  layers.ns_per_cycle_p50 = quantile(acc.chunk_ns_per_cycle, 0.50);
  layers.ns_per_cycle_p99 = quantile(acc.chunk_ns_per_cycle, 0.99);
  // Per-eval and per-module costs use the traced reps' fastest chunks,
  // like the end-to-end rate.
  const double ns_per_cycle = 1e9 / rate(RepMode::kTraced);
  layers.ns_per_eval =
      w.busy ? ratio(ns_per_cycle, layers.evals_per_cycle) : 0.0;
  layers.ns_per_module_cycle =
      ratio(ns_per_cycle, static_cast<double>(acc.modules));
  layers.build_ms = median(acc.build_ms);
  const double on = rate(RepMode::kUntraced);
  const double traced = rate(RepMode::kTraced);
  const double off = rate(RepMode::kProfilerOff);
  layers.profiler_overhead_frac = ratio(off, on) - 1.0;
  layers.trace_overhead_frac = ratio(on, traced) - 1.0;
  set_layers(metrics, layers);
  std::printf("%s: %zu reps (%zu traced), %zu traced chunks of %" PRIu64
              " cycles; untraced %.0f cycles/s, traced %.0f cycles/s, "
              "profiler off %.0f cycles/s\n",
              w.name, i, acc.chunk_ns_per_cycle.size() / kChunksPerRep,
              acc.chunk_ns_per_cycle.size(), w.rep_cycles / kChunksPerRep, on,
              traced, off);
}

// ---------------------------------------------------------------------
// campaign_fork: the Fig. 9 campaign over snapshot-forked trials
// ---------------------------------------------------------------------

constexpr std::size_t kTrialsPerScenario = 50;
constexpr std::uint64_t kWarmupCycles = 1500;
constexpr std::size_t kDecompositionStride = 3;  ///< every third trial

const fault::FaultPoint kPoints[] = {
    fault::FaultPoint::kAwReadyStuck, fault::FaultPoint::kWValidStuck,
    fault::FaultPoint::kWReadyStuck,  fault::FaultPoint::kBValidStuck,
    fault::FaultPoint::kBWrongId,     fault::FaultPoint::kArReadyStuck,
    fault::FaultPoint::kRValidStuck,  fault::FaultPoint::kRWrongId,
};

campaign::TrialSpec campaign_proto(tmu::Variant v, fault::FaultPoint p) {
  campaign::TrialSpec spec;
  spec.cfg.variant = v;
  spec.cfg.tc_total_budget = 200;
  spec.cfg.adaptive.enabled = true;
  spec.cfg.adaptive.cycles_per_beat = 3;
  spec.cfg.adaptive.cycles_per_ahead = 6;
  spec.point = p;
  spec.traffic.enabled = true;
  spec.traffic.p_new_txn = 0.25;
  spec.traffic.max_outstanding = 6;
  spec.traffic.len_max = 7;
  spec.warmup_cycles = kWarmupCycles;
  spec.inject_delay_max = 200;
  spec.detect_budget = 600;
  spec.soak_cycles = 800;  // the fault window: inject_delay_max + detect
  return spec;
}

/// Fc and Tc, each over the 8 fault points plus one healthy soak. All
/// trials of one variant share one warm-up (same desc, config, traffic).
std::vector<campaign::Scenario> campaign_scenarios() {
  std::vector<campaign::Scenario> sc;
  for (const tmu::Variant v :
       {tmu::Variant::kFullCounter, tmu::Variant::kTinyCounter}) {
    const std::string tag = v == tmu::Variant::kFullCounter ? "fc/" : "tc/";
    for (const fault::FaultPoint p : kPoints) {
      sc.push_back(campaign::make_scenario(tag + to_string(p),
                                           campaign_proto(v, p),
                                           kTrialsPerScenario));
    }
    sc.push_back(campaign::make_scenario(
        tag + "soak", campaign_proto(v, fault::FaultPoint::kNone),
        kTrialsPerScenario));
  }
  return sc;
}
constexpr std::uint64_t kWarmupGroups = 2;  // one per variant

/// A trial fails if it throws, times out, misses its detection, or flags
/// on a healthy soak.
bool trial_failed(const campaign::TrialSpec& spec,
                  const campaign::TrialResult& r) {
  if (r.failed || r.timed_out) return true;
  return spec.point == fault::FaultPoint::kNone ? r.detected : !r.detected;
}

void add_trial(Fingerprint& fp, const campaign::TrialResult& r) {
  fp.add(r.detected);
  fp.add(r.latency);
  fp.add(r.detect_cycle);
  fp.add(r.completed_txns);
  fp.add(r.cycles_run);
}

bool same_outcome(const campaign::TrialResult& a,
                  const campaign::TrialResult& b) {
  return a.failed == b.failed && a.timed_out == b.timed_out &&
         a.detected == b.detected && a.latency == b.latency &&
         a.detect_cycle == b.detect_cycle &&
         a.completed_txns == b.completed_txns && a.cycles_run == b.cycles_run;
}

/// One Engine::run over the campaign, with the results the decomposition
/// pass checks itself against.
struct CampaignRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint32_t span = 0;          ///< engine_run span id (traced runs)
  Clock::time_point start, end;    ///< around the Engine::run call
  std::uint64_t sim_cycles = 0;    ///< fork windows plus shared warm-ups
  std::uint64_t trials = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;
  std::vector<campaign::TrialSpec> specs;
  campaign::Report report;
};

CampaignRun run_campaign(std::uint64_t base_seed, unsigned threads,
                         bool traced, SpanLog* log, std::uint32_t parent) {
  CampaignRun run;
  Scope rep_span(log, parent, traced ? "rep.traced" : "rep.untraced");
  SpanLog* inner = traced ? log : nullptr;

  const auto t0 = Clock::now();
  const std::vector<campaign::Scenario> scenarios = campaign_scenarios();
  campaign::EngineOptions eo;
  eo.threads = threads;
  eo.base_seed = base_seed;
  const campaign::Engine engine(eo);
  run.start = Clock::now();
  if (!traced) {
    run.report = engine.run(scenarios);
  } else {
    // The Engine's own forking trial body, each call wrapped in a span.
    Scope run_span(inner, rep_span.id(), "engine_run");
    run.span = run_span.id();
    const campaign::TrialFn forking = campaign::make_forking_trial_fn();
    run.report = engine.run(scenarios, [&](const campaign::TrialSpec& s) {
      Scope t(inner, run.span, "trial");
      return forking(s);
    });
  }
  run.end = Clock::now();
  run.setup_s = seconds_between(t0, run.start);
  run.run_s = seconds_between(run.start, run.end);

  run.specs = campaign::flatten_trials(scenarios, base_seed);
  Fingerprint fp;
  for (std::size_t i = 0; i < run.specs.size(); ++i) {
    const campaign::TrialResult& r = run.report.results[i];
    add_trial(fp, r);
    if (trial_failed(run.specs[i], r)) ++run.failed;
    run.sim_cycles += r.cycles_run - std::min(r.cycles_run, kWarmupCycles);
  }
  run.trials = run.specs.size();
  run.sim_cycles += kWarmupGroups * kWarmupCycles;
  run.fingerprint = fp.value();
  return run;
}

/// Single-threaded split of a sample of the campaign's own trials into
/// SocBuilder::build, snapshot::restore and campaign::finish_fault_trial
/// (plus one build + warm-up + snapshot::capture per warm-up group),
/// checked against the Engine's results for the same trials.
bool decompose_campaign(const CampaignRun& ref, SpanLog* log,
                        std::uint32_t parent, Layers& l) {
  Scope dec(log, parent, "decomposition");
  struct Group {
    campaign::TrialSpec key;
    soc::SocDesc desc;
    snapshot::Snapshot snap;
  };
  std::vector<Group> groups;
  std::vector<double> warm_ms, capture_ms, build_ms, restore_ms, finish_ms;
  double payload_kb = 0.0;
  bool match = true;

  for (std::size_t i = 1; i < ref.specs.size(); i += kDecompositionStride) {
    const campaign::TrialSpec& spec = ref.specs[i];
    // The warm-up group key: the spec with every per-trial field cleared.
    campaign::TrialSpec key = spec;
    key.seed = 0;
    key.point = fault::FaultPoint::kNone;
    key.inject_delay_max = key.detect_budget = key.soak_cycles = 0;
    key.max_cycles = 0;
    key.exercise_recovery = false;
    auto g = std::find_if(groups.begin(), groups.end(),
                          [&](const Group& x) { return x.key == key; });
    if (g == groups.end()) {
      Scope w(log, dec.id(), "warmup");
      const auto w0 = Clock::now();
      Group grp{key, spec.desc, {}};
      soc::first_guard(grp.desc)->cfg = spec.cfg;
      std::unique_ptr<soc::Soc> warm;
      {
        Scope b(log, w.id(), "build");
        warm = soc::SocBuilder::build(grp.desc);
      }
      {
        Scope c(log, w.id(), "warm_cycles");
        auto& gen = warm->get<axi::TrafficGenerator>(
            grp.desc.managers.front().name);
        if (spec.traffic.enabled || !grp.desc.managers.front().traffic.enabled) {
          gen.set_random(spec.traffic);
        }
        warm->sim().run(spec.warmup_cycles);
      }
      // Capture reads the settled netlist without changing it, so it is
      // repeated for a steadier timing; the snapshots must agree.
      for (int k = 0; k < 16; ++k) {
        Scope c(log, w.id(), "capture");
        const auto c0 = Clock::now();
        snapshot::Snapshot s = snapshot::capture(*warm);
        capture_ms.push_back(seconds_between(c0, Clock::now()) * 1e3);
        if (k == 0) {
          grp.snap = std::move(s);
          warm_ms.push_back(seconds_between(w0, Clock::now()) * 1e3);
        } else if (!(s == grp.snap)) {
          match = false;
        }
      }
      payload_kb = static_cast<double>(grp.snap.payload.size()) / 1024.0;
      groups.push_back(std::move(grp));
      g = groups.end() - 1;
    }
    const auto b0 = Clock::now();
    std::unique_ptr<soc::Soc> soc;
    {
      Scope b(log, dec.id(), "build");
      soc = soc::SocBuilder::build(g->desc);
    }
    const auto r0 = Clock::now();
    {
      Scope r(log, dec.id(), "restore");
      snapshot::restore(g->snap, *soc);
    }
    const auto f0 = Clock::now();
    campaign::TrialResult res;
    {
      Scope f(log, dec.id(), "finish");
      res = campaign::finish_fault_trial(spec, *soc);
    }
    const auto f1 = Clock::now();
    build_ms.push_back(seconds_between(b0, r0) * 1e3);
    restore_ms.push_back(seconds_between(r0, f0) * 1e3);
    finish_ms.push_back(seconds_between(f0, f1) * 1e3);
    if (!same_outcome(res, ref.report.results[i])) {
      match = false;
      std::fprintf(stderr,
                   "perfledger: decomposed trial %zu disagrees with the "
                   "Engine result\n",
                   i);
    }
  }
  l.warmup_ms = median(warm_ms);
  l.capture_ms = median(capture_ms);
  l.build_ms = median(build_ms);
  l.restore_ms = median(restore_ms);
  l.finish_ms = median(finish_ms);
  l.payload_kb = payload_kb;
  std::printf("campaign decomposition: %zu trials, %zu warm-up groups, "
              "outcomes %s the Engine's\n",
              build_ms.size(), groups.size(), match ? "equal" : "DIFFER from");
  return match;
}

void run_campaign_workload(const Options& opt, unsigned threads, SpanLog* log,
                           Outcome& out, Metrics& metrics) {
  Scope root(log, 0, "campaign_fork");
  const std::uint64_t base_seed = derive_seed(opt.seed, 0xCA3A16);
  // Tracing gets two thirds of the budget; the decomposition pass is a
  // fixed sample after it.
  const double budget = opt.trace ? opt.seconds * 2.0 / 3.0 : opt.seconds;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget));
  // Every engine run repeats the same campaign, so the fastest run (and
  // the fastest set-up) of each kind is the interference-filtered time.
  FastestPieces run_time[2], setup;  // index 1 = traced runs
  struct Window {
    std::uint32_t span;
    Clock::time_point start, end;
  };
  std::vector<Window> windows;  // traced engine runs
  // Every run repeats the same campaign (the fingerprint checks it), so
  // the first run's trials and results stand for all.
  CampaignRun ref;
  const CpuRotation cpus;
  std::size_t i = 0;
  do {
    const bool traced = opt.trace && i % 2 == 1;
    cpus.pin(i / 2, threads);
    CampaignRun run = run_campaign(base_seed, threads, traced, log, root.id());
    run_time[traced].add(0, run.run_s);
    if (!traced) setup.add(0, run.setup_s);
    out.rep_fingerprint(run.fingerprint);
    out.attempted += run.trials;
    out.failed += run.failed;
    ++i;
    if (opt.fingerprint_only) return;
    if (traced) windows.push_back(Window{run.span, run.start, run.end});
    if (i == 1) ref = std::move(run);
  } while (Clock::now() < deadline || i < (opt.trace ? 2u : 1u));

  const double trials = static_cast<double>(ref.trials);
  const double untraced_s = run_time[0].total();
  if (!opt.trace) {
    set_end_to_end(
        metrics,
        EndToEnd{static_cast<double>(ref.sim_cycles) / untraced_s,
                 trials / untraced_s, setup.total()});
    return;
  }

  // Trial spans per traced engine run: the duration distribution, summed
  // busy time against the pool's capacity, and the serial tail from the
  // last trial's end to Engine::run returning.
  Layers layers;
  std::vector<double> trial_ms, eff, tail;
  std::map<std::uint32_t, std::pair<double, Clock::time_point>> busy;
  for (const ledger::Span& s : log->spans()) {
    if (std::string_view(s.name) != "trial") continue;
    const double d = seconds_between(s.start, s.end);
    trial_ms.push_back(d * 1e3);
    auto& [sum, last_end] = busy[s.parent];
    sum += d;
    last_end = std::max(last_end, s.end);
  }
  for (const Window& w : windows) {
    const auto& [sum, last_end] = busy[w.span];
    eff.push_back(ratio(sum, threads * seconds_between(w.start, w.end)));
    tail.push_back(seconds_between(std::max(last_end, w.start), w.end) * 1e3);
  }
  if (!decompose_campaign(ref, log, root.id(), layers)) {
    out.correct = false;
  }
  layers.trial_ms_p50 = quantile(trial_ms, 0.50);
  layers.trial_ms_p99 = quantile(trial_ms, 0.99);
  layers.sim_cycles_per_trial =
      static_cast<double>(ref.sim_cycles - kWarmupGroups * kWarmupCycles) /
      trials;
  layers.parallel_efficiency = median(eff);
  layers.tail_ms = median(tail);
  layers.trace_overhead_frac = ratio(run_time[1].total(), untraced_s) - 1.0;
  set_layers(metrics, layers);
  std::printf("campaign_fork: %zu engine runs (%zu traced) on %u threads, "
              "%zu trial spans; untraced %.0f trials/s, traced %.0f "
              "trials/s\n",
              i, windows.size(), threads, trial_ms.size(), trials / untraced_s,
              trials / run_time[1].total());
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string provenance(const Options& opt, unsigned threads) {
  char buf[64];
  std::string p = "{\"workload\": " + json_str(opt.workload);
  std::snprintf(buf, sizeof buf, ", \"seed\": %" PRIu64, opt.seed);
  p += buf;
  std::snprintf(buf, sizeof buf, ", \"nproc\": %u, \"threads\": %u",
                std::thread::hardware_concurrency(), threads);
  p += buf;
  p += ", \"cpu\": " + json_str(cpu_model());
  p += ", \"compiler\": " + json_str(std::string("gcc ") + __VERSION__);
  p += ", \"build_type\": " + json_str(PERFLEDGER_BUILD_TYPE);
  p += ", \"commit\": " + json_str(opt.commit);
  p += ", \"trace\": ";
  p += opt.trace ? "true" : "false";
  return p + "}";
}

void print_self_times(const SpanLog& log, double wall_s) {
  const auto rows = ledger::self_times(log.spans());
  std::printf("%-18s %8s %12s %12s %8s\n", "span", "count", "total ms",
              "self ms", "self %");
  for (const auto& [name, r] : rows) {
    std::printf("%-18s %8" PRIu64 " %12.3f %12.3f %7.1f%%\n", name.c_str(),
                r.count, r.total_s * 1e3, r.self_s * 1e3,
                100.0 * ratio(r.self_s, wall_s));
  }
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfledger: %s\nusage: perfledger --workload "
               "<grid_busy|cheshire_busy|cheshire_idle|campaign_fork> "
               "--seed <n> --seconds <s> --trace <0|1> [--expect <hex>] "
               "[--spans <path>] [--commit <id>] [--threads <n>] "
               "[--fingerprint-only]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--fingerprint-only") {
      o.fingerprint_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else if (a == "--expect") {
        o.expect = v;
      } else if (a == "--spans") {
        o.spans_path = v;
      } else if (a == "--commit") {
        o.commit = v;
      } else if (a == "--threads") {
        o.threads = static_cast<unsigned>(std::stoul(v));
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

int run(const Options& opt) {
  sim::global_log_level() = sim::LogLevel::kOff;
  ledger::thread_index();  // the main thread is track 0
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = opt.threads != 0 ? opt.threads : std::min(4u, hw);

  const SimWorkload* sim_w = nullptr;
  for (const SimWorkload& w : kSimWorkloads) {
    if (opt.workload == w.name) sim_w = &w;
  }
  if (sim_w == nullptr && opt.workload != "campaign_fork") {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  std::unique_ptr<SpanLog> log;
  if (opt.trace && !opt.fingerprint_only) log = std::make_unique<SpanLog>();
  Outcome out;
  Metrics metrics;
  const auto t0 = Clock::now();
  if (sim_w != nullptr) {
    run_sim_workload(*sim_w, opt, log.get(), out, metrics);
  } else {
    run_campaign_workload(opt, threads, log.get(), out, metrics);
  }
  const double wall_s = seconds_between(t0, Clock::now());

  const std::string fp = hex64(out.fingerprint);
  if (opt.fingerprint_only) {
    std::printf("%s\n", fp.c_str());
    return 0;
  }
  const std::string prov = provenance(opt, threads);
  std::printf("provenance %s\n", prov.c_str());
  std::printf("fingerprint %s seed=%" PRIu64 " %s%s\n", opt.workload.c_str(),
              opt.seed, fp.c_str(),
              opt.expect.empty() ? " (no recorded pin for this seed)"
              : opt.expect == fp ? " (matches recorded pin)"
                                 : " (MISMATCH against recorded pin)");
  if (!opt.expect.empty() && opt.expect != fp) out.correct = false;
  std::printf("operations: %" PRIu64 " attempted, %" PRIu64 " failed\n",
              out.attempted, out.failed);
  if (log != nullptr) {
    std::printf("\nper-layer metrics (%s)\n", opt.workload.c_str());
    metrics.print_table();
    std::printf("\nspan self times over %.3f s\n", wall_s);
    print_self_times(*log, wall_s);
    if (!opt.spans_path.empty()) {
      if (!ledger::write_chrome_json(opt.spans_path, log->spans(),
                                     log->origin(), prov)) {
        std::fprintf(stderr, "perfledger: cannot write %s\n",
                     opt.spans_path.c_str());
        return 1;
      }
      std::printf("spans written to %s\n", opt.spans_path.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              out.correct ? "true" : "false", out.attempted, out.failed,
              metrics.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfledger: %s\n", e.what());
    return 1;
  }
}
