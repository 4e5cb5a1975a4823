#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "axi/link.hpp"
#include "axi/types.hpp"
#include "sim/module.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace axi {

/// One transaction to issue.
struct TxnDesc {
  bool is_write = true;
  Id id = 0;
  Addr addr = 0;
  std::uint8_t len = 0;
  std::uint8_t size = 3;
  Burst burst = Burst::kIncr;
  template <typename V>
  void visit_fields(V& v) {
    visit(v, is_write);
    visit(v, id);
    visit(v, addr);
    visit(v, len);
    visit(v, size);
    check_size(v, size);
    visit(v, burst);
  }
};

/// Completion record kept per transaction for latency analysis.
struct TxnRecord {
  TxnDesc desc;
  std::uint64_t issue_cycle = 0;     ///< first cycle AW/AR valid asserted
  std::uint64_t accept_cycle = 0;    ///< AW/AR handshake cycle
  std::uint64_t complete_cycle = 0;  ///< B handshake / R last handshake
  Resp resp = Resp::kOkay;
  /// Flat (sim/state.hpp): a log of these loads with one bounds check.
  static constexpr bool kFlatState = true;
  template <typename V>
  void visit_fields(V& v) {
    visit(v, desc);
    visit(v, issue_cycle);
    visit(v, accept_cycle);
    visit(v, complete_cycle);
    visit(v, resp);
  }
};

/// Optional random traffic mode.
struct RandomTrafficConfig {
  bool enabled = false;
  double p_new_txn = 0.25;     ///< per-cycle probability of enqueuing a txn
  double write_fraction = 0.5;
  std::uint32_t max_outstanding = 8;
  Id id_min = 0, id_max = 3;
  Addr addr_min = 0, addr_max = 0xFFFF;
  std::uint8_t len_min = 0, len_max = 7;
  std::uint8_t size = 3;
  bool operator==(const RandomTrafficConfig&) const = default;

  /// Rng::range(lo, hi) needs lo <= hi. Names the first inverted draw
  /// range ("len_min 1 > len_max 0"), or returns "" when the id, len and
  /// addr ranges are all ordered. Checked wherever a config arrives from
  /// outside: SocBuilder::validate, a campaign trial's traffic override
  /// and snapshot restore.
  std::string range_error() const {
    const auto inverted = [](const char* what, std::uint64_t lo,
                             std::uint64_t hi) {
      std::string e = what;
      e += "_min ";
      e += std::to_string(lo);
      e += " > ";
      e += what;
      e += "_max ";
      e += std::to_string(hi);
      return e;
    };
    if (id_min > id_max) return inverted("id", id_min, id_max);
    if (len_min > len_max) return inverted("len", len_min, len_max);
    if (addr_min > addr_max) return inverted("addr", addr_min, addr_max);
    return {};
  }

  template <typename V>
  void visit_fields(V& v) {
    visit(v, enabled);
    visit(v, p_new_txn);
    visit(v, write_fraction);
    visit(v, max_outstanding);
    visit(v, id_min);
    visit(v, id_max);
    visit(v, addr_min);
    visit(v, addr_max);
    visit(v, len_min);
    visit(v, len_max);
    visit(v, size);
    check_size(v, size);
    if (!v.saving()) {
      const std::string e = range_error();
      if (!e.empty()) v.fail("traffic config has an inverted range: " + e);
    }
  }
};

/// Deterministic write-data pattern so reads can be verified end to end.
/// A function of the beat address only, so overlapping writes from
/// different managers/IDs store identical bytes and any read can verify.
inline Data pattern_data(Addr beat_address) {
  const Data x = beat_address * 0x9E3779B97F4A7C15ull;
  return x ^ (x >> 29) ^ 0x5DEECE66Dull;
}

/// AXI4 manager model. Moore-style: all outputs are functions of
/// registered state, so eval() is trivially idempotent.
///
/// Issues queued (or random) transactions, keeps AXI ordering rules
/// (W beats strictly follow AW accept order), and records per-transaction
/// latency and response.
class TrafficGenerator : public sim::Module {
 public:
  TrafficGenerator(std::string name, Link& link, std::uint64_t seed = 1);

  /// Enqueues a transaction for issue (FIFO order per channel).
  void push(const TxnDesc& d);

  void set_random(const RandomTrafficConfig& cfg) {
    random_ = cfg;
    notify_state_change();
  }

  /// Extra idle cycles inserted between W beats (0 = full rate).
  void set_w_gap(std::uint32_t gap) {
    w_gap_ = gap;
    notify_state_change();
  }
  /// Cycles b_valid is observed before b_ready asserts (0 = always ready).
  void set_b_ready_delay(std::uint32_t d) {
    b_ready_delay_ = d;
    notify_state_change();
  }
  /// Cycles r_valid is observed before r_ready asserts (0 = always ready).
  void set_r_ready_delay(std::uint32_t d) {
    r_ready_delay_ = d;
    notify_state_change();
  }
  /// Delay between AW accept and first W valid.
  void set_w_start_delay(std::uint32_t d) {
    w_start_delay_ = d;
    notify_state_change();
  }
  /// Caps simultaneously outstanding transactions (issue side).
  void set_max_outstanding(std::uint32_t n) {
    max_outstanding_ = n;
    notify_state_change();
  }

  std::size_t completed() const { return records_.size(); }
  const std::vector<TxnRecord>& records() const { return records_; }
  std::size_t outstanding() const {
    return outstanding_writes_ + outstanding_reads_;
  }
  std::size_t data_mismatches() const { return data_mismatches_; }
  std::size_t error_responses() const { return error_responses_; }
  std::size_t pending_to_issue() const { return aw_queue_.size() + ar_queue_.size(); }

  /// Restarts the random stream from a fresh seed (campaign trials fork
  /// a warmed snapshot, then decorrelate: reseed + per-trial traffic).
  void reseed(std::uint64_t seed) {
    rng_ = sim::Rng(seed);
    notify_state_change();
  }
  const sim::RunningStats& write_latency() const { return write_latency_; }
  const sim::RunningStats& read_latency() const { return read_latency_; }

  void eval() override;
  void tick() override;
  void reset() override;
  void visit_inputs(sim::InputVisitor& in) override {
    in.tick_input(link_.req);
    in.tick_input(link_.rsp);
  }
  void skip_ticks(std::uint64_t n) override { cycle_ += n; }
  void visit_state(sim::StateVisitor& v) override;

 private:
  struct PendingIssue {
    TxnDesc desc;
    std::uint64_t issue_cycle = 0;
    bool issued = false;  ///< valid currently asserted
    template <typename V>
    void visit_fields(V& v) {
      visit(v, desc);
      visit(v, issue_cycle);
      visit(v, issued);
    }
  };
  struct InFlight {
    TxnDesc desc;
    std::uint64_t issue_cycle = 0;
    std::uint64_t accept_cycle = 0;
    unsigned beats_seen = 0;  ///< R beats received (reads)
    template <typename V>
    void visit_fields(V& v) {
      visit(v, desc);
      visit(v, issue_cycle);
      visit(v, accept_cycle);
      visit(v, beats_seen);
    }
  };
  struct WStream {
    TxnDesc desc;
    unsigned next_beat = 0;
    std::uint32_t wait = 0;  ///< cycles before first/next beat may go
    template <typename V>
    void visit_fields(V& v) {
      visit(v, desc);
      visit(v, next_beat);
      visit(v, wait);
    }
  };

  void maybe_spawn_random();
  void complete(InFlight& t, Resp resp, bool is_write);

  Link& link_;
  sim::Rng rng_;
  RandomTrafficConfig random_{};

  // Issue queues (registered state).
  std::deque<PendingIssue> aw_queue_;
  std::deque<PendingIssue> ar_queue_;
  std::deque<WStream> w_streams_;  ///< W beats in AW-accept order

  // Outstanding transactions awaiting response, per ID in accept order.
  std::map<Id, std::deque<InFlight>> write_wait_;
  std::map<Id, std::deque<InFlight>> read_wait_;
  std::size_t outstanding_writes_ = 0;
  std::size_t outstanding_reads_ = 0;

  // Ready-delay counters.
  std::uint32_t b_ready_delay_ = 0, b_wait_ = 0;
  std::uint32_t r_ready_delay_ = 0, r_wait_ = 0;
  bool b_ready_reg_ = true;
  bool r_ready_reg_ = true;

  std::uint32_t w_gap_ = 0;
  std::uint32_t w_start_delay_ = 0;
  std::uint32_t max_outstanding_ = 64;

  std::uint64_t cycle_ = 0;
  std::vector<TxnRecord> records_;
  std::size_t data_mismatches_ = 0;
  std::size_t error_responses_ = 0;
  sim::RunningStats write_latency_;
  sim::RunningStats read_latency_;
};

}  // namespace axi
