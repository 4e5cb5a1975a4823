// SocDesc validation and elaboration.
//
// Canonical registration order (it is part of the topology contract:
// function-coupled blocks — reset units invoking endpoint hw_reset(),
// the CPU stub claiming from the PLIC — depend on their relative tick
// order):
//   1. managers, in declaration order
//   2. the crossbar (when enabled)
//   3. per subordinate, in declaration order: the guard chain
//      upstream -> downstream (mgr injector, TMU, sub injector), the
//      LLC, then the endpoint. A kCluster endpoint is an axi::Bridge
//      followed depth-first by the nested level in the same order
//      (cluster crossbar, then its subordinate chains).
//   4. reset units, in guard order (visit_guards order: a level's
//      guards in declaration order, clusters depth-first)
//   5. the PLIC, then the CPU recovery stub
// Wire-coupled blocks are order-insensitive (no model writes wires in
// tick()). tests/test_soc_desc_equiv.cpp pins the outcomes of this
// order on the Cheshire and IP-testbench netlists (a CPU stub ticking
// before its PLIC moves a Cheshire digest), and
// tests/test_soc_hier_equiv.cpp pins the nested variant against the
// flat one.

#include "soc/builder.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "axi/bridge.hpp"
#include "axi/crossbar.hpp"
#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "fault/injector.hpp"
#include "obs/latency_probe.hpp"
#include "soc/cpu_stub.hpp"
#include "soc/ethernet.hpp"
#include "soc/idma.hpp"
#include "soc/irq.hpp"
#include "soc/llc.hpp"
#include "soc/reset_unit.hpp"
#include "sim/state.hpp"
#include "tmu/tmu.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

namespace soc {

void Soc::visit_state(sim::StateVisitor& v) {
  // Simulator first: verifies the sched policy and (via the scheduler
  // checkpoint) the module count, and seeds the visitor's wire re-tag
  // base before any Wire slot is visited.
  sim_.visit_checkpoint(v);
  // Links in construction order. The count check catches a walk that
  // drifted out of sync before any wire value is misapplied.
  std::uint64_t n_links = links_.size();
  v.count(n_links);
  if (!v.saving() && n_links != links_.size()) {
    v.fail("soc '" + desc_.name + "': snapshot has " +
           std::to_string(n_links) + " links, netlist has " +
           std::to_string(links_.size()));
  }
  for (const auto& l : links_) {
    visit(v, l->req);
    visit(v, l->rsp);
  }
  // Every registered module in simulator registration order (compound
  // modules' shards included). Name-checked: a payload misalignment
  // fails on the module that drifted, not ten modules later.
  for (sim::Module* m : sim_.modules()) {
    const std::string_view nm = v.label(m->name());
    if (nm != m->name()) {
      v.fail("soc '" + desc_.name + "': snapshot stream is at module '" +
             std::string(nm) + "' but the netlist expects '" + m->name() +
             "'");
    }
    m->visit_state(v);
  }
  metrics_.visit_state(v);
}

namespace {

std::string llc_name_of(const SubordinateDesc& s) {
  return s.llc_name.empty() ? s.name + ".llc" : s.llc_name;
}

std::string xbar_name_of(const SubordinateDesc& s) {
  const ClusterDesc& c = s.cluster.front();
  return c.xbar_name.empty() ? s.name + ".xbar" : c.xbar_name;
}

/// The guard of subordinate `s` among its level's guards, or nullptr.
/// Uniqueness is validated.
const GuardDesc* guard_of(const std::vector<GuardDesc>& guards,
                          const SubordinateDesc& s) {
  for (const GuardDesc& g : guards) {
    if (g.subordinate == s.name) return &g;
  }
  return nullptr;
}

/// Block sequence of a subordinate chain, upstream to downstream; the
/// first entry names the chain's head link ("<first>.in"). For a
/// kCluster subordinate the last entry is the bridge (the nested level
/// continues behind it).
std::vector<std::string> chain_blocks(const std::vector<GuardDesc>& guards,
                                      const SubordinateDesc& s) {
  std::vector<std::string> blocks;
  if (const GuardDesc* g = guard_of(guards, s)) {
    if (!g->mgr_injector.empty()) blocks.push_back(g->mgr_injector);
    blocks.push_back(g->name);
    if (!g->sub_injector.empty()) blocks.push_back(g->sub_injector);
  }
  if (s.llc) blocks.push_back(llc_name_of(s));
  blocks.push_back(s.name);
  return blocks;
}

/// Bits needed to represent x (bits_for(0) = 0).
unsigned bits_for(std::uint64_t x) {
  unsigned b = 0;
  while (x != 0) {
    ++b;
    x >>= 1;
  }
  return b;
}

}  // namespace

void SocBuilder::validate(const SocDesc& d) {
  const auto err = [&](const std::string& msg) {
    throw std::invalid_argument("SocDesc '" + d.name + "': " + msg);
  };

  if (d.managers.empty()) err("no managers declared");
  if (d.subordinates.empty()) err("no subordinates declared");

  std::set<std::string> names;  // tree-wide: block names are global
  const auto claim = [&](const std::string& n, const char* what) {
    if (n.empty()) err(std::string("a ") + what + " has an empty name");
    if (!names.insert(n).second) {
      err("duplicate block name '" + n + "' (second use: " + what + ")");
    }
  };

  for (const ManagerDesc& m : d.managers) {
    claim(m.name, "manager");
    if (const std::string e = m.traffic.range_error(); !e.empty()) {
      err("manager '" + m.name + "' has an inverted traffic range: " + e);
    }
    if (m.kind != ManagerKind::kTrafficGen && m.traffic.enabled) {
      err("manager '" + m.name + "' is a " + to_string(m.kind) +
          " but has random traffic enabled "
          "(only traffic_gen managers generate random traffic)");
    }
    if (m.kind != ManagerKind::kTraceReplay && !m.trace_path.empty()) {
      err("manager '" + m.name + "' is a " + to_string(m.kind) +
          " but carries a trace_path (only trace_replay managers replay "
          "streams)");
    }
  }
  if (d.crossbar) claim(d.xbar_name, "crossbar");

  // One interconnect level: subordinate/guard name claims and
  // references, address-window sanity (when the level decodes), window
  // containment in the parent cluster's window, ID-width feasibility of
  // nested crossbars, and recursion into cluster payloads.
  using Window = std::pair<axi::Addr, axi::Addr>;  // [base, base + size)
  const std::function<void(const std::vector<SubordinateDesc>&,
                           const std::vector<GuardDesc>&, bool,
                           std::optional<Window>, unsigned)>
      check_level = [&](const std::vector<SubordinateDesc>& subs,
                        const std::vector<GuardDesc>& guards, bool decode,
                        std::optional<Window> parent, unsigned in_id_bits) {
        for (const SubordinateDesc& s : subs) {
          claim(s.name, "subordinate");
          if (s.llc) claim(llc_name_of(s), "llc");
          if ((s.kind == SubordinateKind::kCluster) != (s.cluster.size() == 1)) {
            if (s.kind == SubordinateKind::kCluster) {
              err("subordinate '" + s.name +
                  "' is a cluster but carries no ClusterDesc payload");
            }
            err("subordinate '" + s.name + "' carries a cluster payload but "
                "is not of kind cluster");
          }
          if (s.kind == SubordinateKind::kMemory && s.mem.bank.enabled) {
            const std::uint32_t n = s.mem.bank.num_banks;
            if (n == 0 || (n & (n - 1)) != 0) {
              err("subordinate '" + s.name + "' bank.num_banks " +
                  std::to_string(n) + " is not a power of two");
            }
          }
        }

        std::map<std::string, std::string> guard_by_sub;
        for (const GuardDesc& g : guards) {
          claim(g.name, "guard");
          if (g.cfg.max_uniq_ids > axi::IdRemapper::kMaxSlots) {
            err("guard '" + g.name + "' max_uniq_ids " +
                std::to_string(g.cfg.max_uniq_ids) +
                " above 256 (tIDs are 8 bits)");
          }
          if (!g.mgr_injector.empty()) claim(g.mgr_injector, "mgr_injector");
          if (!g.sub_injector.empty()) claim(g.sub_injector, "sub_injector");
          if (!g.reset_unit.empty()) claim(g.reset_unit, "reset_unit");
          const bool known = std::any_of(
              subs.begin(), subs.end(),
              [&](const SubordinateDesc& s) { return s.name == g.subordinate; });
          if (!known) {
            err("guard '" + g.name + "' references unknown subordinate '" +
                g.subordinate + "' (guards bind to their own level)");
          }
          const auto [it, fresh] = guard_by_sub.emplace(g.subordinate, g.name);
          if (!fresh) {
            err("subordinate '" + g.subordinate + "' is guarded twice, by '" +
                it->second + "' and '" + g.name + "'");
          }
        }

        if (decode) {
          for (const SubordinateDesc& s : subs) {
            if (s.size == 0) {
              err("subordinate '" + s.name +
                  "' has an empty address window (unreachable)");
            }
            if (s.base + s.size < s.base) {
              err("subordinate '" + s.name +
                  "' address window wraps the address space");
            }
            if (parent &&
                (s.base < parent->first || s.base + s.size > parent->second)) {
              err("subordinate '" + s.name +
                  "' address window does not fit inside its cluster's "
                  "window");
            }
          }
          std::vector<const SubordinateDesc*> by_base;
          for (const SubordinateDesc& s : subs) by_base.push_back(&s);
          std::sort(by_base.begin(), by_base.end(),
                    [](const SubordinateDesc* a, const SubordinateDesc* b) {
                      return a->base < b->base;
                    });
          for (std::size_t i = 1; i < by_base.size(); ++i) {
            const SubordinateDesc* lo = by_base[i - 1];
            const SubordinateDesc* hi = by_base[i];
            if (lo->base + lo->size > hi->base) {
              err("address windows of '" + lo->name + "' and '" + hi->name +
                  "' overlap");
            }
          }
        }

        for (const SubordinateDesc& s : subs) {
          if (s.kind != SubordinateKind::kCluster) continue;
          const ClusterDesc& c = s.cluster.front();
          claim(xbar_name_of(s), "cluster crossbar");
          if (c.subordinates.empty()) {
            err("cluster '" + s.name + "' declares no subordinates");
          }
          const axi::BridgeConfig& b = c.bridge;
          const bool transparent = b.req_latency == 0 && b.rsp_latency == 0;
          if ((b.req_latency == 0) != (b.rsp_latency == 0)) {
            err("cluster '" + s.name + "' bridge mixes zero and non-zero "
                "latencies (transparent bridges must be transparent both "
                "ways)");
          }
          if (transparent && b.id_remap) {
            err("cluster '" + s.name +
                "' bridge cannot remap IDs at latency 0");
          }
          if (b.id_remap && b.max_ids == 0) {
            err("cluster '" + s.name + "' bridge remaps IDs with max_ids 0");
          }
          if (b.id_remap && b.max_ids > axi::IdRemapper::kMaxSlots) {
            err("cluster '" + s.name + "' bridge remaps IDs with max_ids " +
                std::to_string(b.max_ids) + " above 256 (tIDs are 8 bits)");
          }
          if (!transparent && b.fifo_depth == 0) {
            err("cluster '" + s.name + "' bridge has fifo_depth 0");
          }
          // IDs entering the nested crossbar either carry every outer
          // level's manager prefix (no remap) or are compacted tIDs;
          // the nested id_shift must clear them, or the crossbar's
          // response de-prefixing would corrupt IDs.
          const unsigned nested_in_bits =
              b.id_remap ? bits_for(b.max_ids - 1) : in_id_bits;
          if (c.id_shift < nested_in_bits) {
            err("cluster '" + s.name + "' id_shift " +
                std::to_string(c.id_shift) + " is narrower than the " +
                std::to_string(nested_in_bits) +
                " ID bits entering the cluster" +
                (b.id_remap ? " (bridge tIDs)"
                            : " (enable bridge id_remap or widen it)"));
          }
          const std::optional<Window> window =
              s.size != 0 ? std::optional<Window>({s.base, s.base + s.size})
                          : std::nullopt;
          check_level(c.subordinates, c.guards, /*decode=*/true, window,
                      /*in_id_bits=*/c.id_shift);
        }
      };

  const unsigned root_out_bits =
      d.crossbar ? d.id_shift + bits_for(d.managers.size() - 1) : d.id_shift;
  check_level(d.subordinates, d.guards, /*decode=*/d.crossbar, std::nullopt,
              root_out_bits);

  if (d.recovery.enabled) {
    claim(d.recovery.plic, "plic");
    claim(d.recovery.cpu, "cpu");
    std::size_t n_guards = 0;
    visit_guards(d, [&](const GuardDesc&) { ++n_guards; });
    if (n_guards == 0) {
      err("recovery block enabled but there are no guards to service");
    }
  }

  if (!d.crossbar) {
    if (d.managers.size() != 1 || d.subordinates.size() != 1) {
      err("a point-to-point desc (crossbar = false) needs exactly one "
          "manager and one subordinate, got " +
          std::to_string(d.managers.size()) + " and " +
          std::to_string(d.subordinates.size()));
    }
  }

  // Probes and traces: fresh block names, and each must target a link
  // the builder will actually create (the naming scheme documented on
  // soc::Soc, mirrored here over the whole cluster tree).
  if (!d.probes.empty() || !d.traces.empty()) {
    std::set<std::string> link_names;
    for (const ManagerDesc& m : d.managers) link_names.insert(m.name + ".out");
    const std::function<void(const std::vector<SubordinateDesc>&,
                             const std::vector<GuardDesc>&)>
        collect_links = [&](const std::vector<SubordinateDesc>& subs,
                            const std::vector<GuardDesc>& guards) {
          for (const SubordinateDesc& s : subs) {
            for (const std::string& b : chain_blocks(guards, s)) {
              link_names.insert(b + ".in");
            }
            if (s.kind == SubordinateKind::kCluster) {
              link_names.insert(s.name + ".down");
              const ClusterDesc& c = s.cluster.front();
              collect_links(c.subordinates, c.guards);
            }
          }
        };
    collect_links(d.subordinates, d.guards);
    const auto check_link = [&](const char* what, const std::string& name,
                                const std::string& link) {
      if (link_names.count(link) == 0) {
        err(std::string(what) + " '" + name + "' references unknown link '" +
            link + "' (valid names: \"<manager>.out\", \"<block>.in\", "
            "\"<cluster>.down\")");
      }
    };
    for (const ProbeDesc& p : d.probes) {
      claim(p.name, "probe");
      check_link("probe", p.name, p.link);
    }
    for (const TraceDesc& t : d.traces) {
      claim(t.name, "trace");
      check_link("trace", t.name, t.link);
    }
  }
}

std::unique_ptr<Soc> SocBuilder::build(const SocDesc& desc) {
  validate(desc);
  std::unique_ptr<Soc> soc(new Soc(desc));
  const SocDesc& d = soc->desc();

  const auto mk_link = [&](const std::string& name) -> axi::Link& {
    soc->links_.push_back(std::make_unique<axi::Link>());
    soc->link_by_name_[name] = soc->links_.back().get();
    return *soc->links_.back();
  };
  const auto add = [&](std::unique_ptr<sim::Module> m) -> sim::Module& {
    sim::Module& ref = *m;
    soc->by_name_[ref.name()] = &ref;
    soc->modules_.push_back(std::move(m));
    return ref;
  };

  // 1. Managers. Their port links are the crossbar manager ports — or,
  // point-to-point, the single subordinate chain's head.
  std::vector<axi::Link*> mgr_ports;
  for (const ManagerDesc& m : d.managers) {
    axi::Link& l = mk_link(m.name + ".out");
    mgr_ports.push_back(&l);
    switch (m.kind) {
      case ManagerKind::kTrafficGen:
        add(std::make_unique<axi::TrafficGenerator>(m.name, l, m.seed));
        break;
      case ManagerKind::kDmaEngine:
        add(std::make_unique<IdmaEngine>(m.name, l, m.dma_max_burst,
                                         m.dma_id));
        break;
      case ManagerKind::kTraceReplay:
        add(std::make_unique<trace::TraceTrafficGen>(m.name, l));
        break;
    }
  }

  // 2 + 3. Interconnect levels, depth-first: per level the chain head
  // links (that level's crossbar subordinate ports), the crossbar, then
  // every subordinate chain in declaration order — recursing through a
  // bridge whenever a chain ends in a cluster. Guards are collected in
  // visit_guards order for phases 4/5.
  std::map<std::string, tmu::Tmu*> guard_tmu;
  std::map<std::string, std::function<void()>> guard_reset_cb;
  std::vector<const GuardDesc*> guard_order;

  const std::function<void(const std::vector<SubordinateDesc>&,
                           const std::vector<GuardDesc>&,
                           std::vector<axi::Link*>, const std::string&,
                           unsigned, bool)>
      build_level = [&](const std::vector<SubordinateDesc>& subs,
                        const std::vector<GuardDesc>& guards,
                        std::vector<axi::Link*> ports,
                        const std::string& xbar_name, unsigned id_shift,
                        bool crossbar) {
        for (const GuardDesc& g : guards) guard_order.push_back(&g);

        std::vector<axi::Link*> heads;
        for (const SubordinateDesc& s : subs) {
          const std::string head_name = chain_blocks(guards, s).front() + ".in";
          if (crossbar) {
            heads.push_back(&mk_link(head_name));
          } else {
            heads.push_back(ports.front());
            soc->link_by_name_[head_name] = ports.front();
          }
        }
        if (crossbar) {
          std::vector<axi::AddrRange> map;
          for (std::size_t i = 0; i < subs.size(); ++i) {
            map.push_back(axi::AddrRange{subs[i].base, subs[i].size, i});
          }
          add(std::make_unique<axi::Crossbar>(xbar_name, ports, heads, map,
                                              id_shift));
        }

        for (std::size_t si = 0; si < subs.size(); ++si) {
          const SubordinateDesc& s = subs[si];
          const std::vector<std::string> blocks = chain_blocks(guards, s);
          axi::Link* cur = heads[si];
          std::size_t bi = 0;
          const auto next_link = [&]() -> axi::Link& {
            return mk_link(blocks[bi + 1] + ".in");
          };

          const GuardDesc* g = guard_of(guards, s);
          if (g != nullptr) {
            if (!g->mgr_injector.empty()) {
              axi::Link& nxt = next_link();
              add(std::make_unique<fault::FaultInjector>(g->mgr_injector, *cur,
                                                         nxt));
              cur = &nxt;
              ++bi;
            }
            axi::Link& nxt = next_link();
            guard_tmu[g->name] = &static_cast<tmu::Tmu&>(
                add(std::make_unique<tmu::Tmu>(g->name, *cur, nxt, g->cfg)));
            cur = &nxt;
            ++bi;
            if (!g->sub_injector.empty()) {
              axi::Link& inxt = next_link();
              add(std::make_unique<fault::FaultInjector>(g->sub_injector, *cur,
                                                         inxt));
              cur = &inxt;
              ++bi;
            }
          }
          if (s.llc) {
            axi::Link& nxt = next_link();
            add(std::make_unique<LastLevelCache>(llc_name_of(s), *cur, nxt,
                                                 s.llc_cfg));
            cur = &nxt;
            ++bi;
          }
          switch (s.kind) {
            case SubordinateKind::kMemory: {
              auto& mem = static_cast<axi::MemorySubordinate&>(add(
                  std::make_unique<axi::MemorySubordinate>(s.name, *cur,
                                                           s.mem)));
              if (g != nullptr) {
                guard_reset_cb[g->name] = [&mem] { mem.hw_reset(); };
              }
              break;
            }
            case SubordinateKind::kEthernet: {
              auto& eth = static_cast<EthernetPeripheral&>(add(
                  std::make_unique<EthernetPeripheral>(s.name, *cur, s.eth)));
              if (g != nullptr) {
                guard_reset_cb[g->name] = [&eth] { eth.hw_reset(); };
              }
              break;
            }
            case SubordinateKind::kCluster: {
              const ClusterDesc& c = s.cluster.front();
              axi::Link& down = mk_link(s.name + ".down");
              auto& bridge = static_cast<axi::Bridge&>(add(
                  std::make_unique<axi::Bridge>(s.name, *cur, down,
                                                c.bridge)));
              if (g != nullptr) {
                guard_reset_cb[g->name] = [&bridge] { bridge.hw_reset(); };
              }
              build_level(c.subordinates, c.guards, {&down}, xbar_name_of(s),
                          c.id_shift, /*crossbar=*/true);
              break;
            }
          }
        }
      };

  build_level(d.subordinates, d.guards, mgr_ports, d.xbar_name, d.id_shift,
              d.crossbar);

  // 4. Reset units, in guard order.
  for (const GuardDesc* g : guard_order) {
    if (g->reset_unit.empty()) continue;
    tmu::Tmu& t = *guard_tmu.at(g->name);
    add(std::make_unique<ResetUnit>(g->reset_unit, t.reset_req, t.reset_ack,
                                    guard_reset_cb.at(g->name),
                                    g->reset_duration));
  }

  // 5. Recovery loop: PLIC sources in guard order, then the CPU stub.
  if (d.recovery.enabled) {
    auto& plic = static_cast<IrqController&>(
        add(std::make_unique<IrqController>(d.recovery.plic)));
    std::vector<tmu::Tmu*> tmus;
    for (const GuardDesc* g : guard_order) {
      tmu::Tmu& t = *guard_tmu.at(g->name);
      plic.add_source(t.irq);
      tmus.push_back(&t);
    }
    add(std::make_unique<CpuRecoveryStub>(d.recovery.cpu, plic,
                                          std::move(tmus),
                                          d.recovery.handler_latency));
  }

  // 6. Observability probes, in declaration order — appended after the
  // functional netlist so probe insertion never perturbs the canonical
  // registration order (the topology goldens pin phases 1-5).
  for (const ProbeDesc& p : d.probes) {
    add(std::make_unique<obs::LatencyProbe>(p.name, soc->link(p.link),
                                            soc->metrics_));
  }

  // 7. Trace capture points, in declaration order — appended after the
  // probes for the same reason: recorders never drive wires, so the
  // functional netlist's registration order stays cycle-exact. Buffers
  // are stamped with the desc hash (traces section included), which is
  // what ties a trace file back to the topology it was captured on.
  for (const TraceDesc& t : d.traces) {
    add(std::make_unique<trace::Recorder>(t.name, t.link, soc->link(t.link),
                                          soc->topology_hash(),
                                          trace::Recorder::kDefaultCapacity,
                                          &soc->metrics_));
  }

  // Register everything in construction order, reset, and apply the
  // managers' initial traffic modes (post-reset, like testbench code).
  for (const auto& m : soc->modules_) soc->sim_.add(*m);
  soc->sim_.reset();
  for (const ManagerDesc& m : d.managers) {
    if (m.kind == ManagerKind::kTrafficGen && m.traffic.enabled) {
      soc->get<axi::TrafficGenerator>(m.name).set_random(m.traffic);
    }
    if (m.kind == ManagerKind::kTraceReplay && !m.trace_path.empty()) {
      try {
        soc->get<trace::TraceTrafficGen>(m.name).set_stream(
            trace::read_trace_file(m.trace_path));
      } catch (const std::runtime_error& e) {
        throw std::invalid_argument("SocDesc '" + d.name + "': manager '" +
                                    m.name + "' trace_path failed to load: " +
                                    e.what());
      }
    }
  }
  return soc;
}

}  // namespace soc
