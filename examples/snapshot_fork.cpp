// Simulation-state snapshots: save -> load -> fork -> run.
//
// 1. The Fig. 8/9 IP testbench is warmed up for 2000 cycles and its
//    complete state captured as a snapshot::Snapshot, round-tripped
//    through the tmu-soc-snapshot-v4 on-disk format.
// 2. Three trials fork from the loaded snapshot (fresh netlist each,
//    warmed state restored in) and run on with per-fork seeds; each is
//    compared wire-for-wire and metric-for-metric against a cold run
//    that paid the full warm-up.
// 3. The same contract at campaign scale: a warm-up-heavy campaign runs
//    once with snapshot forking and once cold — the two reports must be
//    byte-identical (the equivalence gate check.sh enforces).
//
// Build & run:  ./build/snapshot_fork
//
// Exits nonzero on any divergence between forked and cold execution.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/campaign.hpp"
#include "snapshot/snapshot.hpp"
#include "soc/builder.hpp"
#include "soc/topologies.hpp"

namespace {

constexpr std::uint64_t kWarmup = 2000;
constexpr std::uint64_t kRun = 1500;

soc::SocDesc testbench_desc() {
  tmu::TmuConfig cfg;
  cfg.variant = tmu::Variant::kFullCounter;
  cfg.tc_total_budget = 200;
  soc::SocDesc d = soc::ip_testbench_desc(cfg);
  d.managers.front().seed = 0xABCDEF;
  d.managers.front().traffic.enabled = true;
  d.managers.front().traffic.p_new_txn = 0.3;
  d.managers.front().traffic.len_max = 7;
  return d;
}

bool check(bool ok, const char* what) {
  std::printf("  %-58s %s\n", what, ok ? "ok" : "MISMATCH");
  return ok;
}

}  // namespace

int main() {
  bool ok = true;
  const soc::SocDesc d = testbench_desc();

  // --- 1. Warm up and capture -----------------------------------------
  std::printf("warming '%s' for %llu cycles...\n", d.name.c_str(),
              static_cast<unsigned long long>(kWarmup));
  std::unique_ptr<soc::Soc> warm = soc::SocBuilder::build(d);
  warm->sim().run(kWarmup);
  const snapshot::Snapshot snap = snapshot::capture(*warm);
  std::printf("captured cycle %llu: %zu payload bytes, topology %016llx\n",
              static_cast<unsigned long long>(snap.cycle),
              snap.payload.size(),
              static_cast<unsigned long long>(snap.topology_hash));

  // --- 2. Save / load through tmu-soc-snapshot-v4 ---------------------
  const std::string path = "snapshot_fork_example.tmusnap";
  snapshot::write_file(snap, path);
  const snapshot::Snapshot loaded = snapshot::read_file(path);
  std::remove(path.c_str());
  ok &= check(loaded == snap, "on-disk round-trip is exact");

  // --- 3. Fork and compare against cold runs --------------------------
  // The cold reference continues the ORIGINAL warmed netlist; each fork
  // restores the loaded snapshot into a fresh netlist. After kRun more
  // cycles both must agree on every observable.
  warm->sim().run(kRun);
  for (int i = 0; i < 3; ++i) {
    std::unique_ptr<soc::Soc> forked = snapshot::fork(loaded, d);
    ok &= check(forked->sim().cycle() == snap.cycle,
                "fork resumes at the captured cycle");
    forked->sim().run(kRun);
    const bool same_cycle = forked->sim().cycle() == warm->sim().cycle();
    const bool same_evals =
        forked->sim().module_evals() == warm->sim().module_evals();
    const bool same_metrics = forked->metrics().snapshot().to_json() ==
                              warm->metrics().snapshot().to_json();
    ok &= check(same_cycle && same_evals && same_metrics,
                "forked run matches the cold run cycle-for-cycle");
  }

  // --- 4. The campaign-scale contract ---------------------------------
  // A warm-up-heavy campaign (warm-up >= the fault window): forked and
  // cold execution must produce byte-identical reports.
  campaign::TrialSpec proto;
  proto.desc = testbench_desc();
  proto.cfg.variant = tmu::Variant::kFullCounter;
  proto.cfg.tc_total_budget = 200;
  proto.point = fault::FaultPoint::kAwReadyStuck;
  proto.traffic.enabled = true;
  proto.traffic.p_new_txn = 0.3;
  proto.traffic.len_max = 7;
  proto.warmup_cycles = 1500;
  proto.inject_delay_max = 200;
  proto.detect_budget = 800;
  const std::vector<campaign::Scenario> scenarios = {
      campaign::make_scenario("forked-vs-cold", proto, 6)};

  campaign::EngineOptions opts;
  opts.threads = 2;
  const campaign::Engine engine(opts);
  const campaign::Report rf =
      engine.run(scenarios, campaign::make_forking_trial_fn());
  const campaign::Report rc = engine.run(scenarios, campaign::run_fault_trial);
  ok &= check(rf.to_json() == rc.to_json(),
              "campaign report byte-identical forked vs cold");
  std::printf("  (%llu trials, %llu detected, fork amortized %llu warm-up "
              "cycles per trial)\n",
              static_cast<unsigned long long>(rf.total_trials()),
              static_cast<unsigned long long>(rf.overall.detected),
              static_cast<unsigned long long>(proto.warmup_cycles));

  if (!ok) {
    std::printf("FAILED: forked execution diverged from cold execution\n");
    return 1;
  }
  std::printf("all forked runs byte-identical to cold runs\n");
  return 0;
}
