#include "obs/metrics.hpp"

#include <cinttypes>
#include <stdexcept>

#include "sim/jsonfmt.hpp"
#include "sim/state.hpp"

namespace obs {

using sim::jsonfmt::append_f;
using sim::jsonfmt::json_escape;

void MetricsRegistry::claim(const std::string& name, char kind) {
  if (name.empty()) {
    throw std::invalid_argument("MetricsRegistry: empty metric name");
  }
  const auto [it, fresh] = kind_of_.emplace(name, kind);
  if (!fresh && it->second != kind) {
    throw std::invalid_argument("MetricsRegistry: metric '" + name +
                                "' already registered under another kind");
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  claim(name, 'c');
  return counters_[name];
}

sim::RunningStats& MetricsRegistry::stats(const std::string& name) {
  claim(name, 's');
  return stats_[name];
}

sim::Histogram& MetricsRegistry::histogram(const std::string& name) {
  claim(name, 'h');
  return histograms_[name];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c.value();
  s.stats = stats_;
  s.histograms = histograms_;
  return s;
}

void MetricsRegistry::reset_values() {
  for (auto& [name, c] : counters_) c.set(0);
  for (auto& [name, rs] : stats_) rs = {};
  for (auto& [name, h] : histograms_) h = {};
}

void MetricsRegistry::visit_state(sim::StateVisitor& v) {
  // One strictly-checked pass per kind: name-sorted (name, value) pairs.
  // The name check pins that the restoring netlist registered the exact
  // same slots — a registry is structure, only the values travel.
  const auto section = [&](auto& slots, const char* what, auto&& value_of) {
    std::uint64_t n = slots.size();
    v.count(n);
    if (!v.saving() && n != slots.size()) {
      v.fail(std::string("metrics registry has ") +
             std::to_string(slots.size()) + " " + what +
             " slots, snapshot has " + std::to_string(n));
    }
    for (auto& [name, slot] : slots) {
      const std::string_view nm = v.label(name);
      if (nm != name) {
        v.fail(std::string("metrics registry ") + what + " slot '" + name +
               "' does not match snapshot slot '" + std::string(nm) + "'");
      }
      value_of(slot);
    }
  };
  section(counters_, "counter", [&](Counter& c) {
    std::uint64_t val = c.value();
    v.u64(val);
    if (!v.saving()) c.set(val);
  });
  section(stats_, "stats", [&](sim::RunningStats& rs) { visit(v, rs); });
  section(histograms_, "histogram", [&](sim::Histogram& h) { visit(v, h); });
}

void MetricsSnapshot::merge(const MetricsSnapshot& o) {
  for (const auto& [name, v] : o.counters) counters[name] += v;
  for (const auto& [name, rs] : o.stats) stats[name].merge(rs);
  for (const auto& [name, h] : o.histograms) histograms[name].merge(h);
}

void MetricsSnapshot::append_json(std::string& out,
                                  const std::string& indent) const {
  const auto key = [&](const std::string& name) {
    out += indent;
    out += "  \"";
    out += json_escape(name);
    out += "\": ";
  };
  out += indent + "\"counters\": {";
  const char* sep = "\n";
  for (const auto& [name, v] : counters) {
    out += sep;
    sep = ",\n";
    key(name);
    append_f(out, "%" PRIu64, v);
  }
  out += counters.empty() ? std::string("},\n") : "\n" + indent + "},\n";
  out += indent + "\"stats\": {";
  sep = "\n";
  for (const auto& [name, rs] : stats) {
    out += sep;
    sep = ",\n";
    key(name);
    append_f(out, "{\"count\": %" PRIu64 ", \"mean\": %.6f, ", rs.count(),
             rs.mean());
    append_f(out, "\"stddev\": %.6f, \"min\": %.0f, \"max\": %.0f}",
             rs.stddev(), rs.min(), rs.max());
  }
  out += stats.empty() ? std::string("},\n") : "\n" + indent + "},\n";
  out += indent + "\"histograms\": {";
  sep = "\n";
  for (const auto& [name, h] : histograms) {
    out += sep;
    sep = ",\n";
    key(name);
    out += '{';
    const char* bsep = "";
    for (const auto& [value, count] : h.bins()) {
      append_f(out, "%s\"%" PRIu64 "\": %" PRIu64, bsep, value, count);
      bsep = ", ";
    }
    out += '}';
  }
  out += histograms.empty() ? std::string("}") : "\n" + indent + "}";
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n";
  append_json(out, "  ");
  out += "\n}\n";
  return out;
}

}  // namespace obs
