#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "axi/id_remap.hpp"
#include "axi/types.hpp"
#include "sim/stats.hpp"
#include "tmu/budget.hpp"
#include "tmu/config.hpp"
#include "tmu/counter.hpp"
#include "tmu/fault.hpp"
#include "tmu/ott.hpp"

namespace tmu {

/// Per-guard bookkeeping counters and (Fc) performance statistics.
struct GuardStats {
  std::uint64_t enqueued = 0;
  std::uint64_t completed = 0;
  std::uint64_t beats = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t protocol_faults = 0;
  sim::RunningStats total_latency;                 ///< enqueue -> complete
  std::array<sim::RunningStats, kMaxPhases> phase; ///< Fc per-phase cycles

  template <typename V>
  void visit_fields(V& v) {
    visit(v, enqueued);
    visit(v, completed);
    visit(v, beats);
    visit(v, timeouts);
    visit(v, protocol_faults);
    visit(v, total_latency);
    visit(v, phase);
  }
};

/// One completed transaction's phase-level timing (Fc performance log).
struct TxnPerfRecord {
  bool is_write = true;
  axi::Id id = 0;
  axi::Addr addr = 0;
  std::uint8_t len = 0;
  std::array<std::uint32_t, kMaxPhases> phase_cycles{};
  std::uint32_t total_cycles = 0;

  /// Flat (sim/state.hpp): a log of these loads with one bounds check.
  static constexpr bool kFlatState = true;
  template <typename V>
  void visit_fields(V& v) {
    visit(v, is_write);
    visit(v, id);
    visit(v, addr);
    visit(v, len);
    visit(v, phase_cycles);
    visit(v, total_cycles);
  }
};

/// The channel group a guard monitors.
enum class Dir : std::uint8_t { kWrite, kRead };

/// Transaction guard (§II-A, Figs. 1-2) for one direction. The Write
/// Guard tracks every outstanding write through the six phases of
/// Fig. 4, the Read Guard every read through the four of Fig. 5, with
/// one counter per phase (Fc) or one per transaction (Tc). It performs
/// the timeout, handshake, ID-match and unrequested-response checks.
///
/// Both directions share admission, the address-handshake tracker (AW or
/// AR: payload stability, valid withdrawn before ready, acceptance),
/// budget arming and phase advance, completion statistics and the Fc
/// perf log, fault records, the prescaled watchdog and clear(). Only the
/// data/response FSMs are per direction: W and B for writes, R for
/// reads.
template <Dir D>
class Guard {
 public:
  static constexpr bool kIsWrite = D == Dir::kWrite;

  explicit Guard(const TmuConfig& cfg)
      : cfg_(&cfg),
        remap_(cfg.max_uniq_ids),
        ott_(cfg.max_uniq_ids, cfg.txn_per_uniq_id),
        budget_(cfg),
        prescaler_(cfg.prescaler_step) {}

  /// True if a new transaction with this AXI ID could be admitted now.
  bool can_admit(axi::Id id) const {
    if (ott_.full()) return false;
    if (auto t = remap_.lookup(id)) return !ott_.id_full(*t);
    return remap_.can_admit(id);
  }

  /// Observes one settled cycle of the manager-side link. `admitted`
  /// reflects the TMU's gating decision for a new AW/AR this cycle.
  void observe(const axi::AxiReq& q, const axi::AxiRsp& s, bool admitted,
               std::uint64_t cycle);

  /// Faults flagged so far (drained by the TMU top level).
  std::vector<FaultRecord>& faults() { return faults_; }

  /// Clears all tracking state (after a recovery reset).
  void clear();

  /// Fast-forwards n observe() calls that saw a quiet link with nothing
  /// outstanding: only the prescaler phase moves.
  void skip_idle_cycles(std::uint64_t n) { prescaler_.advance(n); }

  const GuardStats& stats() const { return stats_; }
  const std::vector<TxnPerfRecord>& perf_log() const { return perf_log_; }
  std::uint64_t perf_log_dropped() const { return perf_dropped_; }
  Ott& ott() { return ott_; }
  const Ott& ott() const { return ott_; }
  axi::IdRemapper& remapper() { return remap_; }
  const axi::IdRemapper& remapper() const { return remap_; }

  template <typename V>
  void visit_fields(V& v) {
    visit(v, remap_);
    visit(v, ott_);
    visit(v, prescaler_);
    visit(v, pending_);
    visit(v, pending_flit_);
    visit(v, prev_addr_valid_);
    if constexpr (kIsWrite) visit(v, w_orphan_flagged_);
    visit(v, rsp_orphan_flagged_);
    visit(v, faults_);
    visit(v, stats_);
    visit(v, perf_log_);
    visit(v, perf_dropped_);
    if (!v.saving()) {
      if (const char* why = state_error()) v.fail(why);
    }
  }

 private:
  using Phase = std::conditional_t<kIsWrite, WritePhase, ReadPhase>;
  static constexpr unsigned kNumPhases =
      kIsWrite ? kNumWritePhases : kNumReadPhases;
  /// The address handshake (AWVLD_AWRDY / ARVLD_ARRDY) and the wait for
  /// the first data beat (AWRDY_WVLD / ARRDY_RVLD) open both FSMs.
  static constexpr Phase kAddrPhase = static_cast<Phase>(0);
  static constexpr Phase kDataWaitPhase = static_cast<Phase>(1);

  void enqueue_pending(const axi::AxFlit& ax, std::uint64_t cycle);
  void advance_phase(LdEntry& e, Phase next);
  void complete(int idx);
  void flag(FaultKind kind, const LdEntry* e, Phase phase,
            std::uint64_t cycle, axi::Id id_hint = 0);
  void pulse_counters(std::uint64_t cycle);
  /// Why restored state would index the OTT or a per-phase array out of
  /// range, or nullptr: the presented entry must be live, and every live
  /// entry in one of this direction's phases (an entry reaching kDone
  /// completes in the same edge).
  const char* state_error() const {
    if (pending_ != -1 && (pending_ < 0 ||
                           pending_ >= static_cast<int>(ott_.capacity()) ||
                           !ott_.at(pending_).valid)) {
      return "guard's presented entry is not a live OTT entry";
    }
    for (const int idx : ott_.order()) {
      if (ott_.at(idx).phase >= kNumPhases) {
        return "OTT entry phase out of range";
      }
    }
    return nullptr;
  }

  const TmuConfig* cfg_;
  axi::IdRemapper remap_;
  Ott ott_;
  BudgetPolicy budget_;
  Prescaler prescaler_;

  int pending_ = -1;  ///< LD index of the AW/AR being presented
  axi::AxFlit pending_flit_{};
  bool prev_addr_valid_ = false;
  bool w_orphan_flagged_ = false;    ///< writes: W without AW flagged
  bool rsp_orphan_flagged_ = false;  ///< unrequested B/R flagged

  std::vector<FaultRecord> faults_;
  GuardStats stats_;
  std::vector<TxnPerfRecord> perf_log_;
  std::uint64_t perf_dropped_ = 0;
};

extern template class Guard<Dir::kWrite>;
extern template class Guard<Dir::kRead>;

using WriteGuard = Guard<Dir::kWrite>;
using ReadGuard = Guard<Dir::kRead>;

}  // namespace tmu
