#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "axi/link.hpp"
#include "axi/types.hpp"
#include "sim/module.hpp"

namespace axi {

/// Optional DRAM-style bank/row-buffer timing (off by default, so plain
/// SRAM-like subordinates keep the constant latencies below). Modeled on
/// Sniper's dram_perf_model_detailed: each access selects a bank by
/// address interleaving and pays an extra latency depending on that
/// bank's row buffer — hit (row open), miss (bank idle, activate), or
/// conflict (another row open, precharge + activate). Closed-page
/// policy closes the row after every access, so every access is a miss.
struct BankTimingConfig {
  bool enabled = false;
  std::uint32_t num_banks = 4;   ///< power of two
  std::uint32_t col_bits = 6;    ///< log2(row-interleave granularity bytes)
  bool open_page = true;         ///< keep the row open after an access
  std::uint32_t t_hit = 0;       ///< extra cycles, row-buffer hit
  std::uint32_t t_miss = 6;      ///< extra cycles, bank idle (activate)
  std::uint32_t t_conflict = 12; ///< extra cycles, row conflict (pre+act)
  bool operator==(const BankTimingConfig&) const = default;
};

/// Timing/behaviour knobs for the memory model.
struct MemoryConfig {
  std::uint32_t aw_accept_latency = 0;  ///< cycles aw_valid waits for ready
  std::uint32_t ar_accept_latency = 0;
  std::uint32_t w_ready_every = 1;      ///< accept a W beat every N cycles
  std::uint32_t b_latency = 1;          ///< wlast accept -> b_valid
  std::uint32_t r_first_latency = 2;    ///< ar accept -> first r_valid
  std::uint32_t r_beat_every = 1;       ///< R beat rate
  std::size_t max_outstanding = 16;     ///< per direction
  /// Addresses in [error_base, error_end) respond SLVERR.
  Addr error_base = 0, error_end = 0;
  BankTimingConfig bank{};  ///< optional variable DRAM timing
  bool operator==(const MemoryConfig&) const = default;
};

/// AXI4 memory subordinate with sparse byte storage and configurable
/// latencies. Moore-style: every output is a function of registered
/// state. Services writes and reads independently, in arrival order
/// (which also guarantees AXI same-ID ordering).
class MemorySubordinate : public sim::Module {
 public:
  MemorySubordinate(std::string name, Link& link, MemoryConfig cfg = {});

  void eval() override;
  void tick() override;
  void reset() override;
  void visit_inputs(sim::InputVisitor& in) override {
    in.tick_input(link_.req);
    in.tick_input(link_.rsp);
  }
  void skip_ticks(std::uint64_t n) override { cycle_ += n; }
  void visit_state(sim::StateVisitor& v) override;

  /// Backdoor accessors for tests.
  std::uint8_t peek(Addr a) const {
    const Page* p = find_page(a);
    return p == nullptr ? 0 : (*p)[a % kPageBytes];
  }
  void poke(Addr a, std::uint8_t v) {
    touch_page(a)[a % kPageBytes] = v;
    notify_state_change();
  }
  std::uint64_t peek_beat(Addr a, std::uint8_t size) const;

  std::size_t writes_done() const { return writes_done_; }
  std::size_t reads_done() const { return reads_done_; }

  /// Bank-timing telemetry (all zero while cfg.bank.enabled is false).
  std::size_t row_hits() const { return row_hits_; }
  std::size_t row_misses() const { return row_misses_; }
  std::size_t row_conflicts() const { return row_conflicts_; }

  /// External hardware reset input (from a reset unit): clears all
  /// in-flight state, keeps storage.
  void hw_reset() {
    clear_inflight_ = true;
    notify_state_change();
  }

  const MemoryConfig& config() const { return cfg_; }

 private:
  struct WriteTxn {
    AwFlit aw;
    unsigned beats_got = 0;
    bool data_done = false;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, aw);
      visit(v, beats_got);
      visit(v, data_done);
    }
  };
  struct ReadTxn {
    ArFlit ar;
    unsigned next_beat = 0;
    std::uint64_t ready_at = 0;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, ar);
      visit(v, next_beat);
      visit(v, ready_at);
    }
  };
  struct PendingB {
    Id id = 0;
    Resp resp = Resp::kOkay;
    std::uint64_t ready_at = 0;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, id);
      visit(v, resp);
      visit(v, ready_at);
    }
  };

  bool in_error_region(Addr a) const {
    return cfg_.error_end > cfg_.error_base && a >= cfg_.error_base &&
           a < cfg_.error_end;
  }
  /// Extra latency of one access at `a` under the bank model, updating
  /// the addressed bank's row buffer. 0 when bank timing is off.
  std::uint32_t bank_access(Addr a);
  void close_all_rows() {
    for (auto& r : bank_row_) r = kRowClosed;
  }
  void store_beat(Addr a, std::uint8_t size, Data data, std::uint8_t strb);
  Data load_beat(Addr a, std::uint8_t size) const;

  // Sparse paged backing store: one map node per 4 KiB page (with
  // last-hit caches) instead of the seed's hash per byte, which dominated
  // the per-cycle profile under burst traffic. Beats are size-aligned and
  // capped at 8 bytes, so a beat never straddles a page. Ordered by page
  // number, so capture writes the pages in order and restore merges them
  // in one walk. Node-based map: page pointers stay valid across inserts,
  // so the caches only need resetting when restore erases pages (reset()
  // and hw_reset() keep storage, like real DRAM).
  static constexpr std::uint64_t kPageBytes = 4096;
  using Page = std::array<std::uint8_t, kPageBytes>;

  const Page* find_page(Addr a) const {
    const Addr pno = a / kPageBytes;
    if (r_cache_page_ != nullptr && r_cache_no_ == pno) {
      return r_cache_page_;
    }
    const auto it = mem_.find(pno);
    if (it == mem_.end()) return nullptr;
    r_cache_no_ = pno;
    r_cache_page_ = &it->second;
    return r_cache_page_;
  }
  Page& touch_page(Addr a) {
    const Addr pno = a / kPageBytes;
    if (w_cache_page_ != nullptr && w_cache_no_ == pno) {
      return *w_cache_page_;
    }
    Page& p = mem_[pno];  // zero-filled on first touch
    w_cache_no_ = pno;
    w_cache_page_ = &p;
    return p;
  }

  Link& link_;
  MemoryConfig cfg_;
  std::map<Addr, Page> mem_;  ///< keyed on page number
  mutable Addr r_cache_no_ = 0;
  mutable const Page* r_cache_page_ = nullptr;
  Addr w_cache_no_ = 0;
  Page* w_cache_page_ = nullptr;

  std::deque<WriteTxn> write_q_;
  std::deque<PendingB> b_q_;
  std::deque<ReadTxn> read_q_;

  std::uint32_t aw_wait_ = 0;
  std::uint32_t ar_wait_ = 0;
  std::uint32_t w_rate_cnt_ = 0;
  std::uint32_t r_rate_cnt_ = 0;
  std::uint64_t cycle_ = 0;
  std::size_t writes_done_ = 0, reads_done_ = 0;

  /// Open row per bank (kRowClosed = none). Sized num_banks when bank
  /// timing is enabled, empty otherwise.
  static constexpr std::uint64_t kRowClosed = ~std::uint64_t{0};
  std::vector<std::uint64_t> bank_row_;
  std::size_t row_hits_ = 0, row_misses_ = 0, row_conflicts_ = 0;
  bool clear_inflight_ = false;
};

}  // namespace axi
