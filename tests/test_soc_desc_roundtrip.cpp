// SocDesc serialization fuzz: randomly generated nested trees (clusters
// in clusters, bridges, bank timing, per-level guards) must survive
// to_json -> from_json with full equality and canonical re-emission,
// and the FNV-1a topology hash must react to any nested field change.
// Plus the schema-migration smoke: a committed v1 document (predating
// clusters and bank timing) still parses, equals the desc it was
// generated from, and re-emits upgraded to v2; and the fixed
// "xbar_impl" key, which reads "sharded" or nothing.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/bytes.hpp"
#include "sim/random.hpp"
#include "soc/desc.hpp"
#include "soc/topologies.hpp"

namespace {

using soc::ClusterDesc;
using soc::GuardDesc;
using soc::ManagerDesc;
using soc::SocDesc;
using soc::SubordinateDesc;

std::string name_of(const char* stem, std::uint64_t n) {
  return std::string(stem) + std::to_string(n);
}

GuardDesc random_guard(sim::Rng& rng, const std::string& sub,
                       std::uint64_t uid) {
  GuardDesc g;
  g.name = name_of("g", uid);
  g.subordinate = sub;
  g.cfg.variant = rng.chance(0.5) ? tmu::Variant::kFullCounter
                                  : tmu::Variant::kTinyCounter;
  g.cfg.tc_total_budget = static_cast<std::uint32_t>(rng.range(16, 4096));
  g.cfg.adaptive.enabled = rng.chance(0.5);
  g.cfg.sticky_bit = rng.chance(0.3);
  if (rng.chance(0.6)) g.mgr_injector = name_of("im", uid);
  if (rng.chance(0.6)) g.sub_injector = name_of("is", uid);
  if (rng.chance(0.6)) g.reset_unit = name_of("ru", uid);
  g.reset_duration = static_cast<std::uint32_t>(rng.range(1, 16));
  return g;
}

/// A random subordinate; recurses into a random cluster with probability
/// falling off with depth. `uid` keeps names unique tree-wide.
SubordinateDesc random_sub(sim::Rng& rng, unsigned depth, std::uint64_t& uid) {
  SubordinateDesc s;
  s.name = name_of("s", uid++);
  s.base = rng.range(0, 0xFFFF) << 16;
  s.size = rng.range(1, 0x100) << 12;
  if (depth < 3 && rng.chance(depth == 0 ? 0.5 : 0.3)) {
    s.kind = soc::SubordinateKind::kCluster;
    ClusterDesc c;
    if (rng.chance(0.5)) c.xbar_name = name_of("cx", uid++);
    c.id_shift = static_cast<unsigned>(rng.range(4, 24));
    c.bridge.req_latency = static_cast<std::uint32_t>(rng.range(1, 8));
    c.bridge.rsp_latency = static_cast<std::uint32_t>(rng.range(1, 8));
    c.bridge.id_remap = rng.chance(0.5);
    c.bridge.max_ids = static_cast<std::uint32_t>(rng.range(1, 64));
    c.bridge.fifo_depth = rng.range(1, 16);
    const std::uint64_t n = rng.range(1, 3);
    for (std::uint64_t i = 0; i < n; ++i) {
      c.subordinates.push_back(random_sub(rng, depth + 1, uid));
      if (rng.chance(0.4)) {
        c.guards.push_back(
            random_guard(rng, c.subordinates.back().name, uid++));
      }
    }
    s.cluster = {std::move(c)};
  } else if (rng.chance(0.3)) {
    s.kind = soc::SubordinateKind::kEthernet;
    s.eth.tx_fifo_beats = static_cast<std::uint32_t>(rng.range(8, 256));
    s.eth.drain_every = static_cast<std::uint32_t>(rng.range(1, 4));
  } else {
    s.mem.b_latency = static_cast<std::uint32_t>(rng.range(0, 4));
    s.mem.max_outstanding = static_cast<std::uint32_t>(rng.range(1, 32));
    if (rng.chance(0.5)) {
      s.mem.bank.enabled = true;
      s.mem.bank.num_banks = 1u << rng.range(0, 4);
      s.mem.bank.col_bits = static_cast<std::uint32_t>(rng.range(3, 10));
      s.mem.bank.open_page = rng.chance(0.5);
      s.mem.bank.t_hit = static_cast<std::uint32_t>(rng.range(0, 3));
      s.mem.bank.t_miss = static_cast<std::uint32_t>(rng.range(1, 12));
      s.mem.bank.t_conflict = static_cast<std::uint32_t>(rng.range(2, 24));
    }
    if (rng.chance(0.3)) {
      s.llc = true;
      s.llc_cfg.num_lines = static_cast<std::uint32_t>(rng.range(16, 512));
      if (rng.chance(0.5)) s.llc_name = name_of("llc", uid++);
    }
  }
  return s;
}

SocDesc random_desc(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::uint64_t uid = 0;
  SocDesc d;
  d.name = name_of("fuzz", seed);
  d.id_shift = static_cast<unsigned>(rng.range(4, 16));
  d.policy = rng.chance(0.5) ? sim::sched::SchedPolicy::kEventDriven
                             : sim::sched::SchedPolicy::kFullSweep;
  const std::uint64_t n_mgr = rng.range(1, 3);
  for (std::uint64_t i = 0; i < n_mgr; ++i) {
    ManagerDesc m;
    m.name = name_of("m", uid++);
    m.seed = rng.next();
    if (rng.chance(0.3)) {
      m.kind = soc::ManagerKind::kDmaEngine;
      m.dma_max_burst = static_cast<std::uint8_t>(rng.range(1, 64));
      m.dma_id = static_cast<axi::Id>(rng.range(0, 15));
    } else if (rng.chance(0.5)) {
      m.traffic.enabled = true;
      m.traffic.p_new_txn = 0.125 * static_cast<double>(rng.range(1, 8));
      m.traffic.addr_max = rng.next();
    }
    d.managers.push_back(std::move(m));
  }
  const std::uint64_t n_sub = rng.range(1, 4);
  for (std::uint64_t i = 0; i < n_sub; ++i) {
    d.subordinates.push_back(random_sub(rng, 0, uid));
    if (rng.chance(0.4)) {
      d.guards.push_back(random_guard(rng, d.subordinates.back().name, uid++));
    }
  }
  // Observability probes on a random subset of manager ports (the
  // serializer round-trips them like any other section).
  for (const ManagerDesc& m : d.managers) {
    if (rng.chance(0.4)) {
      soc::ProbeDesc p;
      p.name = name_of("p", uid++);
      p.link = m.name + ".out";
      d.probes.push_back(std::move(p));
    }
  }
  if (rng.chance(0.5)) {
    d.recovery.enabled = true;
    d.recovery.handler_latency = static_cast<std::uint32_t>(rng.range(1, 64));
  }
  // Capture points (drawn after everything else so the cluster-shape
  // stream above is unperturbed), and sometimes a replay manager with a
  // pinned stream path.
  for (std::size_t i = 0; i < n_mgr; ++i) {
    if (rng.chance(0.3)) {
      d.traces.push_back(
          {name_of("t", uid++), d.managers[i].name + ".out"});
    }
  }
  if (rng.chance(0.3)) {
    ManagerDesc rm;
    rm.name = name_of("rp", uid++);
    rm.kind = soc::ManagerKind::kTraceReplay;
    rm.trace_path = name_of("stream", uid++) + ".axitrace";
    d.managers.push_back(std::move(rm));
  }
  return d;
}

/// Number of cluster nodes in the tree (fuzz-coverage sanity).
std::size_t count_clusters(const std::vector<SubordinateDesc>& subs) {
  std::size_t n = 0;
  for (const SubordinateDesc& s : subs) {
    for (const ClusterDesc& c : s.cluster) {
      n += 1 + count_clusters(c.subordinates);
    }
  }
  return n;
}

TEST(SocDescRoundTrip, RandomNestedTreesSurviveAndReEmitCanonically) {
  std::size_t clusters_seen = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const SocDesc d = random_desc(seed);
    clusters_seen += count_clusters(d.subordinates);
    const std::string json = d.to_json();
    SocDesc back;
    ASSERT_NO_THROW(back = SocDesc::from_json(json)) << "seed " << seed;
    EXPECT_TRUE(back == d) << "seed " << seed;
    EXPECT_EQ(back.to_json(), json) << "seed " << seed;
    EXPECT_EQ(back.hash(), d.hash()) << "seed " << seed;
  }
  // The generator actually produced nested topologies to round-trip.
  EXPECT_GT(clusters_seen, 20u);
}

/// Applies `mutate` to a copy of `d` and expects the hash to move.
template <typename F>
void expect_hash_sensitive(const SocDesc& d, const char* what, F mutate) {
  SocDesc m = d;
  mutate(m);
  ASSERT_FALSE(m == d) << what << " (mutation was a no-op)";
  EXPECT_NE(m.hash(), d.hash()) << what;
}

TEST(SocDescRoundTrip, HashCoversNestedClusterFields) {
  const SocDesc d = soc::hierarchical_desc({});
  ASSERT_EQ(d.subordinates[1].cluster.size(), 1u);
  expect_hash_sensitive(d, "bridge.req_latency", [](SocDesc& m) {
    m.subordinates[1].cluster[0].bridge.req_latency += 1;
  });
  expect_hash_sensitive(d, "bridge.id_remap", [](SocDesc& m) {
    m.subordinates[1].cluster[0].bridge.id_remap = false;
  });
  expect_hash_sensitive(d, "cluster.id_shift", [](SocDesc& m) {
    m.subordinates[1].cluster[0].id_shift += 1;
  });
  expect_hash_sensitive(d, "bank.t_conflict", [](SocDesc& m) {
    m.subordinates[0].mem.bank.t_conflict += 1;
  });
  expect_hash_sensitive(d, "bank.open_page", [](SocDesc& m) {
    m.subordinates[0].mem.bank.open_page = false;
  });
  expect_hash_sensitive(d, "nested subordinate window", [](SocDesc& m) {
    m.subordinates[1].cluster[0].subordinates[0].size += 0x1000;
  });
  expect_hash_sensitive(d, "nested guard budget", [](SocDesc& m) {
    m.subordinates[1].cluster[0].guards[0].cfg.tc_total_budget += 1;
  });
  expect_hash_sensitive(d, "nested guard reset_unit", [](SocDesc& m) {
    m.subordinates[1].cluster[0].guards[1].reset_unit = "other";
  });
  // Probes are part of the canonical document: adding one, renaming one
  // or moving it to another link are all distinct topologies.
  expect_hash_sensitive(d, "probe added", [](SocDesc& m) {
    m.probes.push_back({"probe0", "dram.in"});
  });
  SocDesc with_probe = d;
  with_probe.probes.push_back({"probe0", "dram.in"});
  expect_hash_sensitive(with_probe, "probe name", [](SocDesc& m) {
    m.probes[0].name = "probe1";
  });
  expect_hash_sensitive(with_probe, "probe link", [](SocDesc& m) {
    m.probes[0].link = "cpu0.out";
  });
  // Traces are hash-covered the same way — a replayed stream can tell
  // whether it is being driven into the topology it was recorded on.
  expect_hash_sensitive(d, "trace added", [](SocDesc& m) {
    m.traces.push_back({"cap0", "dram.in"});
  });
  SocDesc with_trace = d;
  with_trace.traces.push_back({"cap0", "dram.in"});
  expect_hash_sensitive(with_trace, "trace name", [](SocDesc& m) {
    m.traces[0].name = "cap1";
  });
  expect_hash_sensitive(with_trace, "trace link", [](SocDesc& m) {
    m.traces[0].link = "cpu0.out";
  });
  SocDesc replayer = d;
  replayer.managers[0].kind = soc::ManagerKind::kTraceReplay;
  expect_hash_sensitive(replayer, "manager trace_path", [](SocDesc& m) {
    m.managers[0].trace_path = "pinned.axitrace";
  });
}

TEST(SocDescRoundTrip, GuardSiteVariantsAreDistinctTopologies) {
  const SocDesc leaf = soc::hierarchical_desc({}, soc::HierGuardSite::kLeaf);
  const SocDesc bridge =
      soc::hierarchical_desc({}, soc::HierGuardSite::kBridge);
  EXPECT_NE(leaf.hash(), bridge.hash());
  EXPECT_NE(leaf.hash(), soc::cheshire_desc({}).hash());
  // Round-trip both hierarchy variants explicitly.
  for (const SocDesc* d : {&leaf, &bridge}) {
    const SocDesc back = SocDesc::from_json(d->to_json());
    EXPECT_TRUE(back == *d);
    EXPECT_EQ(back.hash(), d->hash());
  }
}

// ------------------------------------------------------------------
// "xbar_impl": a fixed key. Every document carries "sharded"; a
// document without the key reads the same, and any other value fails.
// ------------------------------------------------------------------

/// `json` with its `"xbar_impl": "sharded"` line replaced by `line`.
std::string replace_xbar_impl(const std::string& json,
                              const std::string& line) {
  const std::string pinned = "  \"xbar_impl\": \"sharded\",\n";
  const std::size_t at = json.find(pinned);
  EXPECT_NE(at, std::string::npos) << json;
  if (at == std::string::npos) return json;
  return json.substr(0, at) + line + json.substr(at + pinned.size());
}

TEST(SocDescXbarKey, MonolithicAndUnknownValuesAreRejectedByName) {
  const std::string json = soc::cheshire_desc({}).to_json();
  for (const char* value : {"monolithic", "zz", ""}) {
    const std::string doc = replace_xbar_impl(
        json, std::string("  \"xbar_impl\": \"") + value + "\",\n");
    try {
      SocDesc::from_json(doc);
      ADD_FAILURE() << "\"" << value << "\" was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("SocDesc::from_json: ", 0), 0u) << what;
      EXPECT_NE(what.find("xbar_impl"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + value + "\""),
                std::string::npos)
          << what;
    }
  }
}

TEST(SocDescXbarKey, MissingKeyReadsAsShardedAndReEmitsIt) {
  for (const SocDesc& d :
       {soc::cheshire_desc({}), soc::grid_desc(4, 3, 1),
        soc::hierarchical_desc({})}) {
    const std::string json = d.to_json();
    const SocDesc back = SocDesc::from_json(replace_xbar_impl(json, ""));
    EXPECT_TRUE(back == d) << d.name;
    EXPECT_EQ(back.to_json(), json) << d.name;
    EXPECT_EQ(back.hash(), d.hash()) << d.name;
  }
}

// ------------------------------------------------------------------
// v1 -> v2 migration smoke: the committed pre-cluster document.
// ------------------------------------------------------------------

TEST(SocDescRoundTrip, V1FixtureParsesAndUpgradesToV2) {
  std::string v1;
  ASSERT_EQ(sim::bytes::read_file(
                std::string(TMU_TEST_DATA_DIR) + "/cheshire_v1.json", v1),
            sim::bytes::FileStatus::kOk)
      << "missing tests/data/cheshire_v1.json";
  ASSERT_NE(v1.find(soc::kSocDescSchemaV1), std::string::npos);

  const SocDesc parsed = SocDesc::from_json(v1);
  // The fixture was generated from the flat Cheshire desc; missing v2
  // keys (clusters, bank timing) take the defaults, i.e. exactly it.
  const SocDesc flat = soc::cheshire_desc({});
  EXPECT_TRUE(parsed == flat);
  EXPECT_EQ(parsed.hash(), flat.hash());

  // Re-emission upgrades the document to the v2 schema, canonically.
  const std::string v2 = parsed.to_json();
  EXPECT_NE(v2.find(soc::kSocDescSchema), std::string::npos);
  EXPECT_EQ(v2.find(soc::kSocDescSchemaV1), std::string::npos);
  EXPECT_EQ(v2, flat.to_json());
}

}  // namespace
