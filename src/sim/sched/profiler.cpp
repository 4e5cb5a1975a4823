#include "sim/sched/profiler.hpp"

#include <algorithm>
#include <cinttypes>

#include "sim/jsonfmt.hpp"

namespace sim::sched {

std::uint64_t SchedProfile::total_evals() const {
  std::uint64_t t = 0;
  for (const ModuleProfile& m : modules) t += m.evals;
  return t;
}

std::string SchedProfile::top_modules(std::size_t n) const {
  std::vector<const ModuleProfile*> by_evals;
  by_evals.reserve(modules.size());
  for (const ModuleProfile& m : modules) by_evals.push_back(&m);
  std::sort(by_evals.begin(), by_evals.end(),
            [](const ModuleProfile* a, const ModuleProfile* b) {
              if (a->evals != b->evals) return a->evals > b->evals;
              return a->name < b->name;
            });
  if (by_evals.size() > n) by_evals.resize(n);

  const std::uint64_t total = total_evals();
  std::string out;
  sim::jsonfmt::append_f(out, "%-24s %10s %6s %8s %6s %6s %6s\n", "module",
                         "evals", "%", "wire", "tick", "ntfy", "full");
  for (const ModuleProfile* m : by_evals) {
    const double pct =
        total ? 100.0 * static_cast<double>(m->evals) /
                    static_cast<double>(total)
              : 0.0;
    sim::jsonfmt::append_f(
        out, "%-24s %10" PRIu64 " %5.1f%% %8" PRIu64 " %6" PRIu64 " %6" PRIu64
             " %6" PRIu64 "\n",
        m->name.c_str(), m->evals, pct, m->wire_wakeups, m->tick_wakeups,
        m->notify_wakeups, m->full_wakeups);
  }
  sim::jsonfmt::append_f(out,
                         "total: %" PRIu64 " evals across %zu modules "
                         "(showing top %zu)\n",
                         total, modules.size(), by_evals.size());
  return out;
}

}  // namespace sim::sched
