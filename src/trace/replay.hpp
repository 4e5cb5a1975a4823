#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "axi/link.hpp"
#include "sim/module.hpp"
#include "trace/format.hpp"

namespace trace {

/// Trace-driven AXI manager: replays a recorded tmu-axi-trace-v1 stream
/// through its link, cycle-accurately. A drop-in ManagerKind — declare
/// a manager as `trace_replay` in a SocDesc (optionally with
/// `trace_path`) or construct one and call set_stream().
///
/// Replay presents each recorded AW/W/AR payload starting at its
/// recorded cycle and holds it until the environment accepts it (or
/// until the recorded retract cycle, whichever the recording says came
/// first), then moves to the next event. b_ready/r_ready are constantly
/// asserted — matching the default TrafficGenerator/IdmaEngine manager
/// behavior traces are captured from (a v1 limitation: manager-side
/// response back-pressure is not part of the stream).
///
/// On the topology the trace was recorded from, this reproduces the
/// recorded manager's request wires bit-for-bit every cycle (pinned by
/// tests/test_trace_replay.cpp), so downstream traffic, memory state
/// and probe metrics are byte-identical to the recording run. On a
/// *different* topology the replay stays causal — presentations never
/// outrun the environment's readiness — which is what makes "same
/// workload, different topology" A/B studies meaningful; retract /
/// re-present pairs are then replayed on their recorded timeline, which
/// can re-issue a transaction the new environment already accepted (a
/// timeline is not a transaction list — see README).
class TraceTrafficGen : public sim::Module {
 public:
  TraceTrafficGen(std::string name, axi::Link& link);

  /// Splits `buf` into per-channel presentation plans (replacing any
  /// previous ones) and rewinds progress; the buffer itself is not
  /// kept. Cycle stamps are relative to the module's last reset, so
  /// install-then-run-from-reset reproduces the recording.
  void set_stream(const TraceBuffer& buf);

  /// Presentation events consumed (fired or retracted on schedule).
  std::uint64_t events_replayed() const;
  std::uint64_t events_total() const {
    return aw_.pres.size() + w_.pres.size() + ar_.pres.size();
  }
  /// Every presentation consumed: the workload has been fully issued.
  bool done() const { return events_replayed() == events_total(); }
  std::uint64_t cycle() const { return cycle_; }

  void eval() override;
  void tick() override;
  void reset() override;

  /// State serde (sim/state.hpp): the channel plans and their progress.
  void visit_state(sim::StateVisitor& v) override;

 private:
  static constexpr std::uint64_t kNoRetract = ~std::uint64_t{0};

  struct Presentation {
    std::uint64_t cycle = 0;          ///< first cycle valid is asserted
    std::uint64_t retract = kNoRetract;  ///< cycle valid drops, no fire
    TraceRecord rec;

    template <typename V>
    void visit_fields(V& v) {
      visit(v, cycle);
      visit(v, retract);
      visit(v, rec);
    }
  };
  struct ChannelPlan {
    std::vector<Presentation> pres;
    std::size_t idx = 0;  ///< next / currently presented event

    template <typename V>
    void visit_fields(V& v) {
      visit(v, pres);
      visit(v, idx);
    }

    const Presentation* current(std::uint64_t cycle) const {
      if (idx >= pres.size()) return nullptr;
      const Presentation& p = pres[idx];
      if (cycle < p.cycle) return nullptr;
      if (cycle >= p.retract) return nullptr;
      return &p;
    }
  };

  /// Advances past the current presentation on a handshake, and past
  /// any presentation whose recorded retract cycle has been reached.
  bool advance(ChannelPlan& c, bool fired);

  axi::Link& link_;
  ChannelPlan aw_, w_, ar_;
  std::uint64_t cycle_ = 0;
};

}  // namespace trace
