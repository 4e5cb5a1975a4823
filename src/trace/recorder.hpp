#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "axi/link.hpp"
#include "obs/metrics.hpp"
#include "sim/module.hpp"
#include "sim/state.hpp"
#include "trace/format.hpp"

namespace trace {

/// Cycle-accurate AXI capture on one link: fills a TraceBuffer with the
/// tmu-axi-trace-v1 record stream (AW/W/AR presentations + retracts,
/// B/R fires — see trace/format.hpp for why). Attach declaratively via
/// the `traces` section of soc::SocDesc, or construct directly in
/// testbench code and register it with the simulator.
///
/// Like the other tick-only sampler (obs::LatencyProbe) it never drives
/// wires, so inserting it cannot perturb the netlist — a recorded run is
/// cycle-identical to an unrecorded one. Capture is
/// bounded: past `capacity` records the stream stops growing and
/// drop_count() says how much of the tail is missing (a truncated
/// buffer replays as a prefix of the workload).
///
/// With a MetricsRegistry (the builder passes the Soc's), the recorder
/// publishes "<name>.records", "<name>.dropped" and per-channel
/// "<name>.aw|w|b|ar|r" counters plus "<name>.retracts", so capture
/// health shows up in campaign reports.
class Recorder : public sim::Module {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  Recorder(const std::string& name, std::string link_name, axi::Link& link,
           std::uint64_t topology_hash = 0,
           std::size_t capacity = kDefaultCapacity,
           obs::MetricsRegistry* registry = nullptr)
      : sim::Module(name), link_(link), capacity_(capacity) {
    buf_.link = std::move(link_name);
    buf_.topology_hash = topology_hash;
    if (registry != nullptr) {
      records_ = &registry->counter(name + ".records");
      dropped_ = &registry->counter(name + ".dropped");
      retracts_ = &registry->counter(name + ".retracts");
      ch_[0] = &registry->counter(name + ".aw");
      ch_[1] = &registry->counter(name + ".w");
      ch_[2] = &registry->counter(name + ".b");
      ch_[3] = &registry->counter(name + ".ar");
      ch_[4] = &registry->counter(name + ".r");
    }
  }

  /// Samples settled wires in tick() only; schedulers skip it in settle.
  bool is_combinational() const override { return false; }

  void tick() override {
    const axi::AxiReq& q = link_.req.read();
    const axi::AxiRsp& s = link_.rsp.read();

    // Manager-driven channels: presentation / retract tracking. The
    // pending flag (valid was up last cycle without a handshake) is
    // what distinguishes a held presentation from a fresh one — two
    // back-to-back transactions with identical payloads still get two
    // presentation records because the fire cleared the flag between
    // them. A payload change while valid stays up without a fire is an
    // AXI violation; record it defensively as retract + re-present so
    // the stream stays replayable. Presentations are built with cycle 0,
    // the form a held one keeps, and stamped as they are pushed.
    step_mgr(q.aw_valid, axi::aw_fire(q, s), aw_pending_, aw_held_,
             TraceRecord{0, Channel::kAw, false, q.aw.id, q.aw.addr, 0,
                         q.aw.len, q.aw.size,
                         static_cast<std::uint8_t>(q.aw.burst), 0, 0, false});
    step_mgr(q.w_valid, axi::w_fire(q, s), w_pending_, w_held_,
             TraceRecord{0, Channel::kW, false, 0, 0, q.w.data, 0, 0, 0, 0,
                         q.w.strb, q.w.last});
    step_mgr(q.ar_valid, axi::ar_fire(q, s), ar_pending_, ar_held_,
             TraceRecord{0, Channel::kAr, false, q.ar.id, q.ar.addr, 0,
                         q.ar.len, q.ar.size,
                         static_cast<std::uint8_t>(q.ar.burst), 0, 0, false});

    // Subordinate-driven channels: handshake cycles.
    if (axi::b_fire(q, s)) {
      push(TraceRecord{cycle_, Channel::kB, false, s.b.id, 0, 0, 0, 0, 0,
                       static_cast<std::uint8_t>(s.b.resp), 0, false});
    }
    if (axi::r_fire(q, s)) {
      push(TraceRecord{cycle_, Channel::kR, false, s.r.id, 0, s.r.data, 0, 0,
                       0, static_cast<std::uint8_t>(s.r.resp), 0, s.r.last});
    }
    ++cycle_;
  }

  void reset() override {
    buf_.records.clear();
    buf_.dropped = 0;
    aw_pending_ = w_pending_ = ar_pending_ = false;
    cycle_ = 0;
    // Registry slots are intentionally NOT cleared (same contract as
    // obs::LatencyProbe: the registry owner picks snapshot boundaries).
  }

  const TraceBuffer& buffer() const { return buf_; }

  /// State serde (sim/state.hpp): the capture buffer and presentation
  /// tracking (capacity is config; counter values travel with the
  /// registry).
  void visit_state(sim::StateVisitor& v) override {
    visit(v, buf_);
    visit(v, aw_pending_);
    visit(v, w_pending_);
    visit(v, ar_pending_);
    visit(v, aw_held_);
    visit(v, w_held_);
    visit(v, ar_held_);
    visit(v, cycle_);
  }

  /// Moves the capture out (e.g. into a campaign TrialResult); the
  /// recorder keeps running on an empty buffer.
  TraceBuffer take() {
    TraceBuffer out = std::move(buf_);
    buf_ = TraceBuffer{};
    buf_.link = out.link;
    buf_.topology_hash = out.topology_hash;
    return out;
  }

  /// Records lost to the capacity bound — nonzero means the buffer is a
  /// prefix of the run, not the whole run.
  std::uint64_t drop_count() const { return buf_.dropped; }
  std::uint64_t cycles() const { return cycle_; }

 private:
  void step_mgr(bool valid, bool fire, bool& pending, TraceRecord& held,
                const TraceRecord& now) {
    if (valid) {
      if (!pending || !(now == held)) {
        if (pending) push(TraceRecord{cycle_, now.ch, /*retract=*/true});
        TraceRecord present = now;
        present.cycle = cycle_;
        push(present);
      }
      held = now;
    } else if (pending) {
      push(TraceRecord{cycle_, now.ch, /*retract=*/true});
    }
    pending = valid && !fire;
  }

  void push(const TraceRecord& r) {
    if (buf_.records.size() >= capacity_) {
      ++buf_.dropped;
      if (dropped_ != nullptr) dropped_->inc();
      return;
    }
    buf_.records.push_back(r);
    if (records_ != nullptr) {
      records_->inc();
      if (r.retract) {
        retracts_->inc();
      } else {
        ch_[static_cast<std::size_t>(r.ch)]->inc();
      }
    }
  }

  axi::Link& link_;
  std::size_t capacity_;
  TraceBuffer buf_;
  bool aw_pending_ = false, w_pending_ = false, ar_pending_ = false;
  /// Each channel's last presentation, cycle cleared.
  TraceRecord aw_held_{}, w_held_{}, ar_held_{};
  std::uint64_t cycle_ = 0;

  obs::Counter* records_ = nullptr;
  obs::Counter* dropped_ = nullptr;
  obs::Counter* retracts_ = nullptr;
  obs::Counter* ch_[5] = {nullptr, nullptr, nullptr, nullptr, nullptr};
};

}  // namespace trace
