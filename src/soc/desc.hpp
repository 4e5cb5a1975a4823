#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "axi/bridge.hpp"
#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "sim/sched/sched.hpp"
#include "soc/ethernet.hpp"
#include "soc/llc.hpp"
#include "tmu/config.hpp"

namespace soc {

/// JSON schema tag written by SocDesc::to_json. from_json accepts this
/// and the v1 tag below (v1 documents predate nested clusters and bank
/// timing; their missing keys take the field defaults, i.e. flat + off).
inline constexpr const char* kSocDescSchema = "tmu-soc-desc-v2";
inline constexpr const char* kSocDescSchemaV1 = "tmu-soc-desc-v1";

/// What kind of AXI manager a ManagerDesc elaborates to.
enum class ManagerKind : std::uint8_t {
  kTrafficGen,   ///< axi::TrafficGenerator (queued or random traffic)
  kDmaEngine,    ///< soc::IdmaEngine (descriptor-based mover)
  kTraceReplay,  ///< trace::TraceTrafficGen (replays a recorded stream)
};

/// What kind of endpoint a SubordinateDesc elaborates to.
enum class SubordinateKind : std::uint8_t {
  kMemory,    ///< axi::MemorySubordinate
  kEthernet,  ///< soc::EthernetPeripheral
  kCluster,   ///< axi::Bridge into a nested interconnect (ClusterDesc)
};

inline const char* to_string(ManagerKind k) {
  switch (k) {
    case ManagerKind::kTrafficGen: return "traffic_gen";
    case ManagerKind::kDmaEngine: return "dma_engine";
    case ManagerKind::kTraceReplay: return "trace_replay";
  }
  return "traffic_gen";
}
inline const char* to_string(SubordinateKind k) {
  switch (k) {
    case SubordinateKind::kMemory: return "memory";
    case SubordinateKind::kEthernet: return "ethernet";
    case SubordinateKind::kCluster: return "cluster";
  }
  return "memory";
}

/// One AXI manager port of the SoC. Managers keep their declaration
/// order: it is the crossbar port order (round-robin arbitration rank)
/// and the upper-ID-bits encoding, so it is part of the topology.
struct ManagerDesc {
  std::string name;
  ManagerKind kind = ManagerKind::kTrafficGen;

  // kTrafficGen: RNG seed and an optional initial random-traffic mode,
  // applied right after the post-build reset (testbench code can always
  // reconfigure it later through Soc::get).
  std::uint64_t seed = 1;
  axi::RandomTrafficConfig traffic{};

  // kDmaEngine parameters (see soc::IdmaEngine).
  std::uint8_t dma_max_burst = 16;
  axi::Id dma_id = 0xD;

  // kTraceReplay: optional tmu-axi-trace-v1 file the builder loads into
  // the replayer after the post-build reset. Empty = testbench code
  // installs the stream itself via TraceTrafficGen::set_stream.
  std::string trace_path;

  bool operator==(const ManagerDesc&) const = default;
};

struct ClusterDesc;

/// One subordinate endpoint and its address window. Declaration order is
/// the crossbar subordinate-port order. The optional LLC sits between
/// the crossbar (or the guard chain, if the endpoint is guarded) and the
/// endpoint itself.
///
/// A kCluster subordinate is not a leaf: its endpoint is an axi::Bridge
/// named after this desc, leading into the nested interconnect described
/// by cluster.front() (the vector holds exactly one element for kCluster
/// and none otherwise — a vector only because the type is recursive).
/// A guard on a kCluster subordinate guards the bridge itself.
struct SubordinateDesc {
  std::string name;
  SubordinateKind kind = SubordinateKind::kMemory;

  /// Address window [base, base + size) decoded to this endpoint.
  axi::Addr base = 0;
  axi::Addr size = 0;

  axi::MemoryConfig mem{};  ///< kMemory parameters
  EthernetConfig eth{};     ///< kEthernet parameters

  bool llc = false;  ///< insert a LastLevelCache in front of the endpoint
  LlcConfig llc_cfg{};
  std::string llc_name;  ///< empty = "<name>.llc"

  std::vector<ClusterDesc> cluster;  ///< kCluster payload (exactly one)

  bool operator==(const SubordinateDesc&) const = default;
};

/// A TMU-guarded chain in front of one subordinate:
///
///   upstream --> [mgr_injector] --> TMU --> [sub_injector] --> endpoint
///                                    |
///                                    +--> irq --> PLIC (RecoveryDesc)
///                                    +--> reset_req/ack --> [reset_unit]
///
/// Injector and reset-unit names are optional; an empty name elides the
/// block. The reset unit invokes the guarded endpoint's hw_reset().
struct GuardDesc {
  std::string name;         ///< TMU module name
  std::string subordinate;  ///< guarded SubordinateDesc::name
  tmu::TmuConfig cfg{};
  std::string mgr_injector;  ///< fault injector upstream of the TMU
  std::string sub_injector;  ///< fault injector downstream of the TMU
  std::string reset_unit;    ///< external reset unit
  std::uint32_t reset_duration = 4;

  bool operator==(const GuardDesc&) const = default;
};

/// A nested interconnect behind an axi::Bridge: the bridge's manager
/// port is the cluster crossbar's single manager-from-above view, the
/// subordinates (with their own sub-windows, guards, LLCs — or further
/// clusters) hang off it. Sub-windows are absolute addresses and must
/// tile inside the owning subordinate's [base, base + size) window;
/// requests landing in a hole terminate with DECERR at the cluster
/// crossbar, never stalling the parent level. The crossbar impl and
/// sched policy are inherited from the root SocDesc.
struct ClusterDesc {
  std::string xbar_name;  ///< empty = "<subordinate>.xbar"

  /// ID-prefix shift of the cluster crossbar. Without bridge ID-remap,
  /// IDs arriving from above still carry every outer level's manager
  /// prefix, so this must be at least the parent level's outgoing ID
  /// width (validated); with remap, ceil(log2(bridge.max_ids)) suffices.
  unsigned id_shift = 8;

  axi::BridgeConfig bridge{};
  std::vector<SubordinateDesc> subordinates;
  std::vector<GuardDesc> guards;  ///< guards on this level's subordinates

  bool operator==(const ClusterDesc&) const = default;
};

/// One declarative observability probe: an obs::LatencyProbe attached to
/// a named link anywhere in the tree, publishing "<name>.*" metrics into
/// the Soc's MetricsRegistry. `link` uses the builder's link-naming
/// scheme — "<manager>.out" (a manager's port into the crossbar),
/// "<block>.in" (the link feeding a named block: an injector, TMU, LLC,
/// endpoint, or cluster bridge) or "<cluster>.down" (behind a bridge);
/// validated against the topology. Part of the canonical JSON
/// (hash-covered): two descs differing only in probes are different
/// topologies.
struct ProbeDesc {
  std::string name;  ///< probe module name = metrics prefix
  std::string link;  ///< builder link name to observe

  bool operator==(const ProbeDesc&) const = default;
};

/// One declarative AXI capture point: a trace::Recorder attached to a
/// named link, filling a tmu-axi-trace-v1 stream (read back after the
/// run through Soc::get<trace::Recorder>). `link` follows the same
/// naming scheme as ProbeDesc::link and is validated the same way.
/// Like probes, traces are hash-covered: a recorded trace carries the
/// hash of the *recording* topology, traces section included.
struct TraceDesc {
  std::string name;  ///< recorder module name = metrics prefix
  std::string link;  ///< builder link name to capture

  bool operator==(const TraceDesc&) const = default;
};

/// The software side of the recovery loop: a PLIC-lite collecting every
/// guard's irq (in guard declaration order) and a CPU recovery stub
/// servicing them.
struct RecoveryDesc {
  bool enabled = false;
  std::string plic = "plic";
  std::string cpu = "cpu";
  std::uint32_t handler_latency = 20;

  bool operator==(const RecoveryDesc&) const = default;
};

/// Declarative netlist description: the single source of truth a
/// SocBuilder elaborates into modules, links and a sim::Simulator.
/// Topology is data — a SocDesc can be compared, hashed, serialized to
/// JSON and shipped to a remote campaign worker, which rebuilds the
/// exact same netlist with SocBuilder::build.
struct SocDesc {
  std::string name = "soc";

  /// With a crossbar (the default), every manager reaches every
  /// subordinate through the address map. Without one, the netlist is a
  /// point-to-point chain: exactly one manager wired straight into the
  /// (single) subordinate's guard chain — the paper's Fig. 8/9 IP-level
  /// testbench shape — and address windows are ignored.
  bool crossbar = true;
  std::string xbar_name = "xbar";
  unsigned id_shift = 8;

  sim::sched::SchedPolicy policy = sim::sched::SchedPolicy::kEventDriven;

  std::vector<ManagerDesc> managers;
  std::vector<SubordinateDesc> subordinates;
  std::vector<GuardDesc> guards;
  std::vector<ProbeDesc> probes;  ///< per-link observability probes
  std::vector<TraceDesc> traces;  ///< per-link AXI capture points
  RecoveryDesc recovery{};

  bool operator==(const SocDesc&) const = default;

  /// Canonical JSON (schema tmu-soc-desc-v2): fixed field order, every
  /// field emitted — including nested clusters — so equal descs
  /// serialize identically.
  std::string to_json() const;

  /// Parses a to_json() document (unknown keys rejected, missing keys
  /// take the field defaults). Accepts schema v2 and legacy v1
  /// documents (re-emitting upgrades them to v2). Throws
  /// std::invalid_argument with the offending key/position on malformed
  /// input or a schema mismatch.
  static SocDesc from_json(const std::string& json);

  /// Stable topology fingerprint: FNV-1a 64 over the canonical JSON.
  /// Equal descs hash equal across processes and machines, which is what
  /// campaign reports record per scenario. Covers the whole tree —
  /// any nested cluster/bridge/bank field change changes the hash.
  std::uint64_t hash() const;
};

/// Visits every guard in the tree in canonical elaboration order: a
/// level's guards in declaration order, then each subordinate's cluster
/// depth-first (subordinate declaration order), root level first. The
/// root PLIC collects irq sources in exactly this order. For a flat
/// desc this is simply the root guard list.
void visit_guards(const SocDesc& d,
                  const std::function<void(const GuardDesc&)>& f);

/// The first guard in visit_guards order, or nullptr (what a fault
/// trial monitors by default).
GuardDesc* first_guard(SocDesc& d);
const GuardDesc* first_guard(const SocDesc& d);

}  // namespace soc
