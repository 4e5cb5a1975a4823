#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "axi/link.hpp"
#include "axi/types.hpp"
#include "sim/module.hpp"

namespace soc {

/// One DMA job: move `beats` 64-bit beats from `src` to `dst`.
struct DmaDescriptor {
  axi::Addr src = 0;
  axi::Addr dst = 0;
  std::uint32_t beats = 0;

  template <typename V>
  void visit_fields(V& v) {
    visit(v, src);
    visit(v, dst);
    visit(v, beats);
  }
};

/// Descriptor-based DMA engine (the iDMA block of Fig. 10): an AXI4
/// manager that reads a source window and writes the data to a
/// destination window in bursts of up to `max_burst` beats.
///
/// The engine processes one chunk at a time (read burst, then write
/// burst) — simple, strictly AXI-compliant, and enough to generate the
/// realistic DRAM -> Ethernet streams the system evaluation uses.
class IdmaEngine : public sim::Module {
 public:
  IdmaEngine(std::string name, axi::Link& link, std::uint8_t max_burst = 16,
             axi::Id id = 0xD)
      : sim::Module(std::move(name)), link_(link),
        max_burst_(max_burst ? max_burst : 1), id_(id) {}

  void submit(const DmaDescriptor& d) {
    if (d.beats > 0) {
      queue_.push_back(d);
      notify_state_change();
    }
  }

  bool busy() const { return state_ != State::kIdle || !queue_.empty(); }
  std::uint64_t descriptors_done() const { return descriptors_done_; }
  std::uint64_t beats_moved() const { return beats_moved_; }
  std::uint64_t error_responses() const { return error_responses_; }

  void eval() override;
  void tick() override;
  void reset() override;
  void visit_inputs(sim::InputVisitor& in) override {
    in.tick_input(link_.req);
    in.tick_input(link_.rsp);
  }

  /// State serde (sim/state.hpp): descriptor queue, chunk FSM, buffer.
  void visit_state(sim::StateVisitor& v) override;

 private:
  enum class State {
    kIdle,
    kArIssue,  ///< presenting AR for the current chunk
    kRData,    ///< collecting R beats into the buffer
    kAwIssue,  ///< presenting AW for the current chunk
    kWData,    ///< streaming W beats from the buffer
    kBWait,    ///< waiting for the write response
  };

  void start_chunk();

  axi::Link& link_;
  std::uint8_t max_burst_;
  axi::Id id_;

  std::deque<DmaDescriptor> queue_;
  State state_ = State::kIdle;
  DmaDescriptor cur_{};
  std::uint32_t done_beats_ = 0;   ///< beats of cur_ fully written
  std::uint32_t chunk_beats_ = 0;  ///< size of the chunk in flight
  std::uint32_t chunk_got_ = 0;    ///< R beats received this chunk
  std::uint32_t chunk_sent_ = 0;   ///< W beats sent this chunk
  std::deque<axi::Data> buf_;

  std::uint64_t descriptors_done_ = 0;
  std::uint64_t beats_moved_ = 0;
  std::uint64_t error_responses_ = 0;
};

}  // namespace soc
