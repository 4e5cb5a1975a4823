#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "axi/link.hpp"
#include "axi/types.hpp"
#include "sim/module.hpp"

namespace soc {

/// Last-Level Cache model (the "Last Level Cache" block of Fig. 10):
/// sits between the crossbar and the DRAM controller.
///
/// Behavioural write-through, read-allocate, direct-mapped cache at
/// cache-line (64 B) granularity:
///  * read hit  — served after `hit_latency` cycles without touching
///    the memory side;
///  * read miss — the full transaction is forwarded to the memory side
///    and the touched lines are allocated when data returns, except a
///    line a queued hit still has to serve;
///  * writes    — always forwarded (write-through) and update any
///    matching lines (no stale hits).
///
/// The point for this repo is timing realism (DRAM traffic shows the
/// hit/miss latency bimodality the TMU's perf log can expose), not
/// cache-coherence research.
struct LlcConfig {
  std::uint32_t num_lines = 256;   ///< direct-mapped, 64 B lines
  std::uint32_t hit_latency = 2;   ///< AR accept -> first R beat on a hit
  bool operator==(const LlcConfig&) const = default;
};

class LastLevelCache : public sim::Module {
 public:
  LastLevelCache(std::string name, axi::Link& up, axi::Link& down,
                 LlcConfig cfg = {})
      : sim::Module(std::move(name)), up_(up), down_(down), cfg_(cfg),
        tags_(cfg.num_lines, kInvalid),
        data_(std::size_t{cfg.num_lines} * kLineBytes, 0) {}

  void eval() override;
  void tick() override;
  void reset() override;
  void visit_inputs(sim::InputVisitor& in) override {
    in.input(up_.req);
    in.input(down_.rsp);
    in.tick_input(up_.req);
    in.tick_input(up_.rsp);
    in.tick_input(down_.req);
    in.tick_input(down_.rsp);
  }
  void skip_ticks(std::uint64_t n) override { cycle_ += n; }

  /// State serde (sim/state.hpp): tag/data arrays plus in-flight queues.
  void visit_state(sim::StateVisitor& v) override;

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double hit_rate() const {
    const double total = static_cast<double>(hits_ + misses_);
    return total > 0 ? static_cast<double>(hits_) / total : 0.0;
  }

 private:
  static constexpr std::uint64_t kLineBytes = 64;
  static constexpr std::uint64_t kInvalid = ~0ull;

  std::uint64_t line_index(axi::Addr a) const {
    return (a / kLineBytes) % cfg_.num_lines;
  }
  std::uint64_t line_tag(axi::Addr a) const { return a / kLineBytes; }
  bool line_present(axi::Addr a) const {
    return tags_[line_index(a)] == line_tag(a);
  }
  /// True iff every beat of the burst hits.
  bool burst_hits(const axi::ArFlit& ar) const;
  /// True iff a queued hit still has a beat to serve from line `idx`.
  bool line_owed(std::uint64_t idx) const;
  axi::Data read_line_beat(axi::Addr a) const;
  void write_line_beat(axi::Addr a, axi::Data d, std::uint8_t strb,
                       bool allocate);

  struct HitRead {
    axi::ArFlit ar;
    unsigned next_beat = 0;
    std::uint64_t ready_at = 0;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, ar);
      visit(v, next_beat);
      visit(v, ready_at);
    }
  };
  struct MissRead {
    axi::ArFlit ar;  ///< for allocation bookkeeping on return
    unsigned beats_seen = 0;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, ar);
      visit(v, beats_seen);
    }
  };
  struct OpenWrite {
    axi::AwFlit aw;
    unsigned beats_got = 0;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, aw);
      visit(v, beats_got);
    }
  };

  axi::Link& up_;
  axi::Link& down_;
  LlcConfig cfg_;

  std::vector<std::uint64_t> tags_;
  std::vector<std::uint8_t> data_;

  std::deque<HitRead> hit_q_;     ///< reads served from the cache
  std::deque<MissRead> miss_q_;   ///< reads in flight to memory
  std::deque<OpenWrite> open_writes_;  ///< write-through beat tracking
  std::uint64_t hits_ = 0, misses_ = 0;
  std::uint64_t cycle_ = 0;
};

}  // namespace soc
