// SocBuilder validation and SocDesc JSON round-trip: every malformed
// desc class throws std::invalid_argument naming the culprit blocks,
// and the canonical topologies survive to_json -> from_json with full
// equality (and a stable hash).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "axi/traffic_gen.hpp"
#include "soc/builder.hpp"
#include "soc/topologies.hpp"
#include "tmu/tmu.hpp"

namespace {

using soc::GuardDesc;
using soc::ManagerDesc;
using soc::SocBuilder;
using soc::SocDesc;
using soc::SubordinateDesc;

/// Minimal valid two-endpoint desc the malformed variants start from.
SocDesc base_desc() {
  SocDesc d;
  d.name = "base";
  ManagerDesc m;
  m.name = "gen";
  d.managers = {m};
  SubordinateDesc s0;
  s0.name = "mem0";
  s0.base = 0x0000;
  s0.size = 0x1000;
  SubordinateDesc s1;
  s1.name = "mem1";
  s1.base = 0x1000;
  s1.size = 0x1000;
  d.subordinates = {s0, s1};
  return d;
}

/// The validation error must name the offending blocks.
void expect_invalid(const SocDesc& d, const std::string& fragment) {
  try {
    SocBuilder::validate(d);
    FAIL() << "expected std::invalid_argument mentioning \"" << fragment
           << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "error was: " << e.what();
  }
}

TEST(SocBuilderValidation, AcceptsTheCanonicalTopologies) {
  EXPECT_NO_THROW(SocBuilder::validate(soc::cheshire_desc({})));
  EXPECT_NO_THROW(SocBuilder::validate(soc::ip_testbench_desc()));
  EXPECT_NO_THROW(SocBuilder::validate(soc::grid_desc(4, 3, 1)));
}

TEST(SocBuilderValidation, DuplicateBlockNameNamesTheCulprit) {
  SocDesc d = base_desc();
  ManagerDesc m2;
  m2.name = "mem1";  // collides with a subordinate
  d.managers.push_back(m2);
  expect_invalid(d, "duplicate block name 'mem1'");

  SocDesc d2 = base_desc();
  d2.subordinates[1].name = "mem0";
  d2.subordinates[1].base = 0x1000;
  expect_invalid(d2, "duplicate block name 'mem0'");
}

TEST(SocBuilderValidation, EmptyAndMissingPieces) {
  SocDesc d = base_desc();
  d.managers.clear();
  expect_invalid(d, "no managers");

  SocDesc d2 = base_desc();
  d2.subordinates.clear();
  expect_invalid(d2, "no subordinates");

  SocDesc d3 = base_desc();
  d3.managers[0].name = "";
  expect_invalid(d3, "empty name");
}

TEST(SocBuilderValidation, GuardOnUnknownSubordinateIsDangling) {
  SocDesc d = base_desc();
  GuardDesc g;
  g.name = "tmu";
  g.subordinate = "nonexistent";
  d.guards = {g};
  expect_invalid(d, "guard 'tmu' references unknown subordinate "
                    "'nonexistent'");
}

TEST(SocBuilderValidation, DoubleGuardOnOneSubordinate) {
  SocDesc d = base_desc();
  GuardDesc g0;
  g0.name = "tmu0";
  g0.subordinate = "mem0";
  GuardDesc g1;
  g1.name = "tmu1";
  g1.subordinate = "mem0";
  d.guards = {g0, g1};
  expect_invalid(d, "'mem0' is guarded twice, by 'tmu0' and 'tmu1'");
}

TEST(SocBuilderValidation, OverlappingAndUnreachableWindows) {
  SocDesc d = base_desc();
  d.subordinates[1].base = 0x0800;  // overlaps mem0's [0, 0x1000)
  expect_invalid(d, "address windows of 'mem0' and 'mem1' overlap");

  SocDesc d2 = base_desc();
  d2.subordinates[0].size = 0;
  expect_invalid(d2, "subordinate 'mem0' has an empty address window");

  SocDesc d3 = base_desc();
  d3.subordinates[1].base = ~0ull - 0x10;
  d3.subordinates[1].size = 0x1000;
  expect_invalid(d3, "'mem1' address window wraps");
}

TEST(SocBuilderValidation, PointToPointConstraints) {
  SocDesc d = soc::ip_testbench_desc();
  ManagerDesc extra;
  extra.name = "gen2";
  d.managers.push_back(extra);
  expect_invalid(d, "point-to-point");
}

TEST(SocBuilderValidation, DmaManagerWithRandomTraffic) {
  SocDesc d = base_desc();
  d.managers[0].kind = soc::ManagerKind::kDmaEngine;
  d.managers[0].traffic.enabled = true;
  expect_invalid(d, "manager 'gen' is a dma_engine");
}

TEST(SocBuilderValidation, InvertedTrafficRangesAreRejected) {
  // Rng::range(lo, hi) draws lo + next() % (hi - lo + 1): with
  // hi == lo - 1 that is a division by zero on the first random
  // transaction, so build must refuse each inverted range by name.
  SocDesc d = soc::ip_testbench_desc();
  auto& t = d.managers.front().traffic;
  t.enabled = true;
  t.p_new_txn = 1.0;
  t.len_min = 1;
  t.len_max = 0;
  try {
    SocBuilder::build(d);
    FAIL() << "build accepted len_min > len_max";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "manager 'gen' has an inverted traffic range: "
                  "len_min 1 > len_max 0"),
              std::string::npos)
        << e.what();
  }
  t.len_min = 0;
  t.id_min = 4;
  t.id_max = 3;
  expect_invalid(d, "id_min 4 > id_max 3");
  t.id_min = 0;
  t.addr_min = 0x2000;
  t.addr_max = 0x1000;
  expect_invalid(d, "addr_min 8192 > addr_max 4096");
  t.addr_min = t.addr_max;  // one-value ranges are fine
  t.len_min = t.len_max = 3;
  t.id_min = t.id_max = 2;
  EXPECT_NO_THROW(SocBuilder::validate(d));
}

TEST(SocBuilderValidation, RecoveryWithNothingToService) {
  SocDesc d = base_desc();
  d.recovery.enabled = true;
  expect_invalid(d, "no guards to service");
}

// ------------------------------------------------------------------
// Nested (cluster) validation.
// ------------------------------------------------------------------

/// base_desc with mem1 swapped for a cluster of two leaves covering the
/// same window.
SocDesc nested_desc() {
  SocDesc d = base_desc();
  SubordinateDesc& cl = d.subordinates[1];
  cl.name = "cl";
  cl.kind = soc::SubordinateKind::kCluster;
  cl.base = 0x1000;
  cl.size = 0x1000;
  soc::ClusterDesc c;
  c.id_shift = 10;
  SubordinateDesc leaf0;
  leaf0.name = "leaf0";
  leaf0.base = 0x1000;
  leaf0.size = 0x800;
  SubordinateDesc leaf1;
  leaf1.name = "leaf1";
  leaf1.base = 0x1800;
  leaf1.size = 0x800;
  c.subordinates = {leaf0, leaf1};
  cl.cluster = {c};
  return d;
}

TEST(SocBuilderValidation, ProbesTargetRealLinksWithFreshNames) {
  // Manager ports, subordinate inputs, and cluster downlinks are all
  // probeable; the leaves of a nested cluster too.
  SocDesc d = nested_desc();
  d.probes.push_back({"p0", "gen.out"});
  d.probes.push_back({"p1", "mem0.in"});
  d.probes.push_back({"p2", "cl.down"});
  d.probes.push_back({"p3", "leaf1.in"});
  EXPECT_NO_THROW(SocBuilder::validate(d));

  SocDesc bad = base_desc();
  bad.probes.push_back({"p0", "gen.in"});  // managers expose .out, not .in
  expect_invalid(bad, "probe 'p0' references unknown link 'gen.in'");

  SocDesc clash = base_desc();
  clash.probes.push_back({"mem1", "gen.out"});
  expect_invalid(clash, "duplicate block name 'mem1'");
}

TEST(SocBuilderValidation, TracesValidateLikeProbes) {
  SocDesc d = nested_desc();
  d.traces.push_back({"t0", "gen.out"});
  d.traces.push_back({"t1", "cl.down"});
  d.traces.push_back({"t2", "leaf0.in"});
  EXPECT_NO_THROW(SocBuilder::validate(d));

  SocDesc bad = base_desc();
  bad.traces.push_back({"t0", "mem9.in"});
  expect_invalid(bad, "trace 't0' references unknown link 'mem9.in'");

  SocDesc clash = base_desc();
  clash.traces.push_back({"mem0", "gen.out"});
  expect_invalid(clash, "duplicate block name 'mem0'");
}

TEST(SocBuilderValidation, TraceReplayManagerWiring) {
  // trace_path is a replay-only knob...
  SocDesc d = base_desc();
  d.managers[0].trace_path = "stream.axitrace";
  expect_invalid(d, "carries a trace_path");

  // ...and replay managers cannot also generate random traffic.
  SocDesc d2 = base_desc();
  d2.managers[0].kind = soc::ManagerKind::kTraceReplay;
  d2.managers[0].traffic.enabled = true;
  expect_invalid(d2, "is a trace_replay but has random traffic enabled");

  // A bad trace_path fails at build (elaboration loads the file),
  // naming the desc, the manager and the underlying reader error.
  SocDesc d3 = base_desc();
  d3.managers[0].kind = soc::ManagerKind::kTraceReplay;
  d3.managers[0].trace_path = "/nonexistent/stream.axitrace";
  EXPECT_NO_THROW(SocBuilder::validate(d3));
  try {
    SocBuilder::build(d3);
    FAIL() << "expected trace_path load failure";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("trace_path failed to load"), std::string::npos) << msg;
    EXPECT_NE(msg.find("gen"), std::string::npos) << msg;
  }
}

TEST(SocBuilderValidation, AcceptsTheHierarchicalTopologies) {
  EXPECT_NO_THROW(SocBuilder::validate(nested_desc()));
  EXPECT_NO_THROW(SocBuilder::validate(soc::hierarchical_desc({})));
  EXPECT_NO_THROW(SocBuilder::validate(
      soc::hierarchical_desc({}, soc::HierGuardSite::kBridge)));
  EXPECT_NO_THROW(SocBuilder::validate(soc::hier_grid_desc(4, 2, 3, 1)));
}

TEST(SocBuilderValidation, ClusterKindAndPayloadMustAgree) {
  SocDesc d = nested_desc();
  d.subordinates[1].cluster.clear();
  expect_invalid(d, "'cl' is a cluster but carries no ClusterDesc payload");

  SocDesc d2 = nested_desc();
  d2.subordinates[1].kind = soc::SubordinateKind::kMemory;
  expect_invalid(d2, "'cl' carries a cluster payload but is not of kind "
                     "cluster");

  SocDesc d3 = nested_desc();
  d3.subordinates[1].cluster[0].subordinates.clear();
  expect_invalid(d3, "cluster 'cl' declares no subordinates");
}

TEST(SocBuilderValidation, SubWindowsMustTileInsideTheClusterWindow) {
  SocDesc d = nested_desc();
  d.subordinates[1].cluster[0].subordinates[1].size = 0x1000;  // past end
  expect_invalid(d, "'leaf1' address window does not fit inside its "
                    "cluster's window");

  SocDesc d2 = nested_desc();
  d2.subordinates[1].cluster[0].subordinates[1].base = 0x1400;  // overlap
  expect_invalid(d2, "address windows of 'leaf0' and 'leaf1' overlap");
}

TEST(SocBuilderValidation, DuplicateNamesAreCaughtTreeWide) {
  SocDesc d = nested_desc();
  d.subordinates[1].cluster[0].subordinates[0].name = "mem0";  // vs root
  expect_invalid(d, "duplicate block name 'mem0'");

  SocDesc d2 = nested_desc();
  d2.subordinates[1].cluster[0].xbar_name = "gen";  // vs a manager
  expect_invalid(d2, "duplicate block name 'gen'");
}

TEST(SocBuilderValidation, GuardsBindToTheirOwnLevel) {
  // A root guard cannot reach inside a cluster...
  SocDesc d = nested_desc();
  GuardDesc g;
  g.name = "tmu";
  g.subordinate = "leaf0";
  d.guards = {g};
  expect_invalid(d, "guard 'tmu' references unknown subordinate 'leaf0'");

  // ...but may guard the cluster itself (i.e. the bridge), and cluster
  // guards bind to the nested level's subordinates.
  SocDesc d2 = nested_desc();
  GuardDesc on_bridge = g;
  on_bridge.subordinate = "cl";
  d2.guards = {on_bridge};
  GuardDesc inner;
  inner.name = "leaf_tmu";
  inner.subordinate = "leaf1";
  d2.subordinates[1].cluster[0].guards = {inner};
  EXPECT_NO_THROW(SocBuilder::validate(d2));
}

TEST(SocBuilderValidation, BridgeConfigConsistency) {
  SocDesc d = nested_desc();
  d.subordinates[1].cluster[0].bridge.req_latency = 0;  // rsp stays 1
  expect_invalid(d, "cluster 'cl' bridge mixes zero and non-zero");

  SocDesc d2 = nested_desc();
  d2.subordinates[1].cluster[0].bridge.req_latency = 0;
  d2.subordinates[1].cluster[0].bridge.rsp_latency = 0;
  d2.subordinates[1].cluster[0].bridge.id_remap = true;
  expect_invalid(d2, "cluster 'cl' bridge cannot remap IDs at latency 0");

  SocDesc d3 = nested_desc();
  d3.subordinates[1].cluster[0].bridge.id_remap = true;
  d3.subordinates[1].cluster[0].bridge.max_ids = 0;
  expect_invalid(d3, "cluster 'cl' bridge remaps IDs with max_ids 0");

  SocDesc d4 = nested_desc();
  d4.subordinates[1].cluster[0].bridge.fifo_depth = 0;
  expect_invalid(d4, "cluster 'cl' bridge has fifo_depth 0");
}

// tIDs are 8 bits: a remapping bridge has at most 256 slots. The nested
// id_shift is wide enough for 257 tIDs, so only the cap is at fault.
TEST(SocBuilderValidation, BridgeRemapsAtMost256Ids) {
  SocDesc d = nested_desc();
  d.subordinates[1].cluster[0].id_shift = 16;
  d.subordinates[1].cluster[0].bridge.id_remap = true;
  d.subordinates[1].cluster[0].bridge.max_ids = 256;
  EXPECT_NO_THROW(SocBuilder::validate(d));
  d.subordinates[1].cluster[0].bridge.max_ids = 257;
  expect_invalid(d, "cluster 'cl' bridge remaps IDs with max_ids 257 above "
                    "256 (tIDs are 8 bits)");
}

// A guard's TMU remaps through the same 8-bit tIDs.
TEST(SocBuilderValidation, GuardRemapsAtMost256Ids) {
  tmu::TmuConfig cfg;
  cfg.max_uniq_ids = 256;
  EXPECT_NO_THROW(SocBuilder::validate(soc::ip_testbench_desc(cfg)));
  cfg.max_uniq_ids = 257;
  expect_invalid(soc::ip_testbench_desc(cfg),
                 "guard 'tmu' max_uniq_ids 257 above 256 (tIDs are 8 bits)");
}

TEST(SocBuilderValidation, NestedIdShiftMustClearIncomingIdWidth) {
  // Root emits id_shift(8) + 0 manager bits = 8-bit IDs; a 6-bit nested
  // shift would corrupt response de-prefixing.
  SocDesc d = nested_desc();
  d.subordinates[1].cluster[0].id_shift = 6;
  expect_invalid(d, "cluster 'cl' id_shift 6 is narrower than the 8 ID "
                    "bits entering the cluster");

  // Bridge ID-remap compacts to bits_for(max_ids - 1), making it legal.
  SocDesc d2 = nested_desc();
  d2.subordinates[1].cluster[0].id_shift = 6;
  d2.subordinates[1].cluster[0].bridge.id_remap = true;
  d2.subordinates[1].cluster[0].bridge.max_ids = 16;
  EXPECT_NO_THROW(SocBuilder::validate(d2));
}

TEST(SocBuilderValidation, BankTimingMustBePowerOfTwoBanks) {
  SocDesc d = base_desc();
  d.subordinates[0].mem.bank.enabled = true;
  d.subordinates[0].mem.bank.num_banks = 6;
  expect_invalid(d, "'mem0' bank.num_banks 6 is not a power of two");
  d.subordinates[0].mem.bank.num_banks = 8;
  EXPECT_NO_THROW(SocBuilder::validate(d));
}

TEST(SocBuilderLookup, TypedGetNamesTheCulprit) {
  const auto soc = SocBuilder::build(soc::ip_testbench_desc());
  EXPECT_NO_THROW(soc->get<tmu::Tmu>("tmu"));
  EXPECT_NO_THROW(soc->get<axi::TrafficGenerator>("gen"));
  try {
    soc->get<tmu::Tmu>("missing");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'missing'"), std::string::npos);
  }
  try {
    soc->get<tmu::Tmu>("gen");  // exists, wrong type
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'gen'"), std::string::npos);
  }
}

// ------------------------------------------------------------------
// JSON round-trip
// ------------------------------------------------------------------

TEST(SocDescJson, CanonicalTopologiesRoundTrip) {
  tmu::TmuConfig cfg;
  cfg.variant = tmu::Variant::kTinyCounter;
  cfg.tc_total_budget = 123;
  cfg.prescaler_step = 4;
  cfg.sticky_bit = true;
  soc::EthernetConfig eth;
  eth.tx_fifo_beats = 32;
  for (const SocDesc& d :
       {soc::cheshire_desc(cfg, eth), soc::ip_testbench_desc(cfg),
        soc::grid_desc(4, 3, 1), soc::grid_desc(1, 1, 0)}) {
    const std::string json = d.to_json();
    const SocDesc back = SocDesc::from_json(json);
    EXPECT_EQ(d, back) << "round-trip mismatch for '" << d.name << "'";
    EXPECT_EQ(back.to_json(), json);
    EXPECT_EQ(d.hash(), back.hash());
  }
}

TEST(SocDescJson, FullPrecisionSeedsAndAddressesSurvive) {
  SocDesc d = base_desc();
  d.managers[0].seed = 0xDEADBEEFCAFEBABEull;  // > 53-bit mantissa
  d.managers[0].traffic.p_new_txn = 0.1;  // not exactly representable
  d.subordinates[1].base = 0xFFFF'FFFF'0000'0000ull;
  d.subordinates[1].size = 0x8000'0000ull;
  const SocDesc back = SocDesc::from_json(d.to_json());
  EXPECT_EQ(d, back);
}

TEST(SocDescJson, HashDistinguishesTopologies) {
  EXPECT_NE(soc::grid_desc(4, 3, 1).hash(), soc::grid_desc(4, 4, 1).hash());
  EXPECT_NE(soc::ip_testbench_desc().hash(), soc::cheshire_desc({}).hash());
  // Equal descs hash equal (determinism across calls).
  EXPECT_EQ(soc::grid_desc(8, 6, 2).hash(), soc::grid_desc(8, 6, 2).hash());
}

TEST(SocDescJson, MalformedDocumentsThrowNamingTheProblem) {
  EXPECT_THROW(SocDesc::from_json("not json"), std::invalid_argument);
  EXPECT_THROW(SocDesc::from_json("{}"), std::invalid_argument);  // schema
  try {
    SocDesc::from_json(R"({"schema": "tmu-soc-desc-v1", "nope": 1})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key \"nope\""),
              std::string::npos);
  }
  try {
    SocDesc::from_json(
        R"({"schema": "tmu-soc-desc-v1", "policy": "sometimes"})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sometimes"), std::string::npos);
  }
  // Out-of-range integers must fail naming the field, not truncate
  // into a silently different topology.
  try {
    SocDesc::from_json(R"({"schema": "tmu-soc-desc-v1", "managers":
        [{"name": "g", "traffic": {"len_max": 300}}]})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("len_max"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("300"), std::string::npos);
  }
  EXPECT_THROW(
      SocDesc::from_json(
          R"({"schema": "tmu-soc-desc-v1", "id_shift": 99999999999999999999})"),
      std::invalid_argument);
}

TEST(SocDescJson, BuildsFromParsedDocument) {
  // The remote-shard path: serialize, parse, elaborate, run.
  const std::string json = soc::grid_desc(2, 2, 1).to_json();
  const auto soc = SocBuilder::build(SocDesc::from_json(json));
  soc->sim().run(500);
  std::size_t done = 0;
  for (const ManagerDesc& m : soc->desc().managers) {
    done += soc->get<axi::TrafficGenerator>(m.name).completed();
  }
  EXPECT_GT(done, 0u);
}

}  // namespace
