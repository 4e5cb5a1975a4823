// SocDesc JSON round-trip (schema tmu-soc-desc-v2) and topology hash.
//
// One field list per struct (sim/jsonio.hpp) drives both directions.
// The Writer emits every field in list order, so the document is
// canonical: equal descs serialize byte-identically and hash() — FNV-1a
// over the document — is a stable cross-process topology fingerprint
// covering the whole cluster tree. The Reader rejects unknown keys
// (typos in hand-written topologies should fail loudly, not silently
// fall back to defaults) and reports the offending key in every error.
// Legacy v1 documents (flat, no bridges/banks) parse unchanged: the keys
// later schema revisions added are optional with flat defaults.

#include "soc/desc.hpp"

#include <utility>

#include "sim/bytes.hpp"
#include "sim/jsonio.hpp"
#include "soc/desc_serde.hpp"

// Field lists of the desc schema (sim/jsonio.hpp), each in its type's
// namespace. The TMU and traffic blocks it shares with the campaign
// spec schema are listed in desc_serde.hpp.

namespace axi {

template <typename V>
void fields(V& v, BankTimingConfig& b) {
  v("enabled", b.enabled);
  v("num_banks", b.num_banks);
  v("col_bits", b.col_bits);
  v("open_page", b.open_page);
  v("t_hit", b.t_hit);
  v("t_miss", b.t_miss);
  v("t_conflict", b.t_conflict);
}

template <typename V>
void fields(V& v, MemoryConfig& m) {
  v("aw_accept_latency", m.aw_accept_latency);
  v("ar_accept_latency", m.ar_accept_latency);
  v("w_ready_every", m.w_ready_every);
  v("b_latency", m.b_latency);
  v("r_first_latency", m.r_first_latency);
  v("r_beat_every", m.r_beat_every);
  v("max_outstanding", m.max_outstanding);
  v("error_base", m.error_base);
  v("error_end", m.error_end);
  v.object("bank", m.bank);
}

template <typename V>
void fields(V& v, BridgeConfig& b) {
  v("req_latency", b.req_latency);
  v("rsp_latency", b.rsp_latency);
  v("id_remap", b.id_remap);
  v("max_ids", b.max_ids);
  v("fifo_depth", b.fifo_depth);
}

}  // namespace axi

namespace soc {

template <typename V>
void fields(V& v, EthernetConfig& c) {
  v("tx_fifo_beats", c.tx_fifo_beats);
  v("drain_every", c.drain_every);
  v("b_latency", c.b_latency);
  v("r_first_latency", c.r_first_latency);
  v("max_outstanding", c.max_outstanding);
  v("mmio_size", c.mmio_size);
}

template <typename V>
void fields(V& v, LlcConfig& c) {
  v("num_lines", c.num_lines);
  v("hit_latency", c.hit_latency);
}

template <typename V>
void fields(V& v, ManagerDesc& m) {
  v("name", m.name);
  v.name("kind", m.kind, ManagerKind::kTraceReplay, "manager kind");
  v("seed", m.seed);
  v.object("traffic", m.traffic);
  v("dma_max_burst", m.dma_max_burst);
  v("dma_id", m.dma_id);
  v("trace_path", m.trace_path);
}

template <typename V>
void fields(V& v, GuardDesc& g) {
  v("name", g.name);
  v("subordinate", g.subordinate);
  v.object("cfg", g.cfg);
  v("mgr_injector", g.mgr_injector);
  v("sub_injector", g.sub_injector);
  v("reset_unit", g.reset_unit);
  v("reset_duration", g.reset_duration);
}

template <typename V>
void fields(V& v, ClusterDesc& c);

template <typename V>
void fields(V& v, SubordinateDesc& s) {
  v("name", s.name);
  v.name("kind", s.kind, SubordinateKind::kCluster, "subordinate kind");
  v("base", s.base);
  v("size", s.size);
  v.object("mem", s.mem);
  v.object("eth", s.eth);
  v("llc", s.llc);
  v.object("llc_cfg", s.llc_cfg);
  v("llc_name", s.llc_name);
  v.array("cluster", s.cluster);
}

template <typename V>
void fields(V& v, ClusterDesc& c) {
  v("xbar_name", c.xbar_name);
  v("id_shift", c.id_shift);
  v.object("bridge", c.bridge);
  v.array("subordinates", c.subordinates);
  v.array("guards", c.guards);
}

template <typename V>
void fields(V& v, ProbeDesc& p) {
  v("name", p.name);
  v("link", p.link);
}

template <typename V>
void fields(V& v, TraceDesc& t) {
  v("name", t.name);
  v("link", t.link);
}

template <typename V>
void fields(V& v, RecoveryDesc& r) {
  v("enabled", r.enabled);
  v("plic", r.plic);
  v("cpu", r.cpu);
  v("handler_latency", r.handler_latency);
}

template <typename V>
void fields(V& v, SocDesc& d) {
  v("name", d.name);
  v("crossbar", d.crossbar);
  v("xbar_name", d.xbar_name);
  v("id_shift", d.id_shift);
  // A fixed key: the crossbar has one implementation, and the key keeps
  // the bytes of every document and topology hash. A missing key reads
  // as "sharded".
  std::string xbar_impl = "sharded";
  v("xbar_impl", xbar_impl);
  if constexpr (V::kReading) {
    if (xbar_impl != "sharded") {
      v.fail(v.ctx("xbar_impl") + ": unsupported crossbar impl \"" +
             xbar_impl + "\" (only \"sharded\" exists)");
    }
  }
  v.name("policy", d.policy, sim::sched::SchedPolicy::kEventDriven,
         "sched policy");
  v.array("managers", d.managers);
  v.array("subordinates", d.subordinates);
  v.array("guards", d.guards);
  v.array("probes", d.probes);
  v.array("traces", d.traces);
  v.object("recovery", d.recovery);
}

std::string SocDesc::to_json() const {
  sim::jsonemit::Emitter e;
  e.open_obj();
  e.str("schema", kSocDescSchema);
  sim::jsonio::Writer w(e);
  fields(w, const_cast<SocDesc&>(*this));
  e.close_obj();
  std::string out = std::move(e).take();
  out += '\n';
  return out;
}

SocDesc SocDesc::from_json(const std::string& json) {
  // Every parse error, wherever it originates, reads
  // "SocDesc::from_json: ...".
  constexpr const char* kErrPrefix = "SocDesc::from_json";
  const sim::jsonparse::Json doc = sim::jsonparse::parse(json, kErrPrefix);
  sim::jsonio::Reader r(doc, "desc", kErrPrefix);
  std::string schema;
  r("schema", schema);
  if (schema != kSocDescSchema && schema != kSocDescSchemaV1) {
    r.fail("schema mismatch: expected \"" + std::string(kSocDescSchema) +
           "\" (or legacy \"" + kSocDescSchemaV1 + "\"), got \"" + schema +
           "\"");
  }
  SocDesc d;
  fields(r, d);
  r.finish();
  return d;
}

namespace {

void visit_cluster_guards(const std::vector<SubordinateDesc>& subs,
                          const std::function<void(const GuardDesc&)>& f) {
  for (const SubordinateDesc& s : subs) {
    for (const ClusterDesc& c : s.cluster) {
      for (const GuardDesc& g : c.guards) f(g);
      visit_cluster_guards(c.subordinates, f);
    }
  }
}

}  // namespace

void visit_guards(const SocDesc& d,
                  const std::function<void(const GuardDesc&)>& f) {
  for (const GuardDesc& g : d.guards) f(g);
  visit_cluster_guards(d.subordinates, f);
}

const GuardDesc* first_guard(const SocDesc& d) {
  const GuardDesc* first = nullptr;
  visit_guards(d, [&](const GuardDesc& g) {
    if (first == nullptr) first = &g;
  });
  return first;
}

GuardDesc* first_guard(SocDesc& d) {
  return const_cast<GuardDesc*>(first_guard(std::as_const(d)));
}

std::uint64_t SocDesc::hash() const {
  // FNV-1a 64 over the canonical JSON: process-independent, so remote
  // shards and campaign reports agree on the fingerprint.
  return sim::bytes::fnv1a64(to_json());
}

}  // namespace soc
