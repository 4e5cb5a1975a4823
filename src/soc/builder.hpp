#pragma once

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "axi/link.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel.hpp"
#include "soc/desc.hpp"

namespace soc {

/// A netlist elaborated from a SocDesc: owns every module and link,
/// owns the sim::Simulator they are registered with, and resolves
/// blocks by their desc names. Only SocBuilder creates one.
///
/// Link names follow a fixed scheme (usable from tests and probes):
/// a manager's port link is "<manager>.out"; inside a subordinate
/// chain every link is named "<consumer>.in" after the block that
/// consumes it as its upstream — e.g. with a guard
/// {tmu, mgr_injector: inj_m, sub_injector: inj_s} on subordinate
/// "eth", the chain links are "inj_m.in" -> "tmu.in" -> "inj_s.in" ->
/// "eth.in".
class Soc {
 public:
  sim::Simulator& sim() { return sim_; }
  const sim::Simulator& sim() const { return sim_; }

  /// The desc this netlist was elaborated from (topology fingerprint:
  /// desc().name / topology_hash()).
  const SocDesc& desc() const { return desc_; }

  /// desc().hash(), computed on first use and kept: the desc cannot
  /// change after elaboration, so a netlist that is restored into again
  /// and again (a pooled campaign trial) pins its topology without
  /// re-serializing the desc each time. Like every Soc call, not for
  /// concurrent use.
  std::uint64_t topology_hash() const {
    if (!topology_hash_) topology_hash_ = desc_.hash();
    return *topology_hash_;
  }

  /// Module by desc name, or nullptr.
  sim::Module* find(const std::string& name) {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second;
  }

  /// Typed module lookup: soc.get<tmu::Tmu>("eth_tmu"). Throws
  /// std::invalid_argument naming the culprit when the name is unknown
  /// or the block is of a different type.
  template <typename T>
  T& get(const std::string& name) {
    sim::Module* m = find(name);
    if (m == nullptr) {
      throw std::invalid_argument("Soc '" + desc_.name +
                                  "': no block named '" + name + "'");
    }
    T* t = dynamic_cast<T*>(m);
    if (t == nullptr) {
      throw std::invalid_argument("Soc '" + desc_.name + "': block '" + name +
                                  "' is not of the requested type");
    }
    return *t;
  }

  /// Named link lookup (see the naming scheme above). Throws
  /// std::invalid_argument on unknown names.
  axi::Link& link(const std::string& name) {
    const auto it = link_by_name_.find(name);
    if (it == link_by_name_.end()) {
      throw std::invalid_argument("Soc '" + desc_.name + "': no link named '" +
                                  name + "'");
    }
    return *it->second;
  }

  /// The netlist's metrics registry: declarative probes (SocDesc::
  /// probes) publish into it, and campaign trials snapshot it into
  /// reports. Testbench code may register additional slots — the
  /// registry lives as long as the Soc.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Netlist-wide state serde (sim/state.hpp): the simulator checkpoint
  /// first (verifies the sched policy and module count, seeds wire
  /// re-tagging), then every link's wires in construction order, then
  /// every registered module in simulator registration order (crossbar
  /// shards included, each name-checked against the snapshot), then the
  /// metrics registry. Drive through snapshot::capture / restore rather
  /// than calling this directly — the capture contract is a settled
  /// netlist.
  void visit_state(sim::StateVisitor& v);

  /// Registered block names in simulator-registration order.
  std::vector<std::string> block_names() const {
    std::vector<std::string> names;
    names.reserve(modules_.size());
    for (const auto& m : modules_) names.push_back(m->name());
    return names;
  }

 private:
  friend class SocBuilder;
  explicit Soc(SocDesc desc) : desc_(std::move(desc)), sim_(desc_.policy) {}

  SocDesc desc_;
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<axi::Link>> links_;
  std::vector<std::unique_ptr<sim::Module>> modules_;  ///< registration order
  std::map<std::string, sim::Module*> by_name_;
  std::map<std::string, axi::Link*> link_by_name_;
  sim::Simulator sim_;
  mutable std::optional<std::uint64_t> topology_hash_;
};

/// Elaborates SocDesc netlists. The single way the repo constructs SoC
/// topologies: build(desc) returns the netlist and Soc::get<T>(name)
/// reaches its blocks. The desc, its SchedPolicy included, is the
/// netlist's whole configuration; the topology helpers
/// (soc/topologies.hpp) return descs to copy and edit, and the
/// examples, benches and campaign fault trials all build through here.
class SocBuilder {
 public:
  /// Structural validation: duplicate block names, dangling guard
  /// endpoints, duplicate guards per endpoint, overlapping or
  /// unreachable (empty) address windows, DMA managers with random
  /// traffic, point-to-point constraints, a recovery block with nothing
  /// to service. Throws std::invalid_argument naming the offending desc
  /// entries. build() always validates first.
  static void validate(const SocDesc& desc);

  /// Validates `desc`, constructs and wires every block, registers the
  /// netlist with the Soc's simulator (policy/crossbar impl from the
  /// desc), resets it, and applies the managers' initial traffic
  /// configs.
  static std::unique_ptr<Soc> build(const SocDesc& desc);
};

}  // namespace soc
