#include "soc/idma.hpp"

#include <algorithm>

#include "sim/state.hpp"

namespace soc {

void IdmaEngine::visit_state(sim::StateVisitor& v) {
  visit(v, queue_);
  visit(v, state_);
  visit(v, cur_);
  visit(v, done_beats_);
  visit(v, chunk_beats_);
  visit(v, chunk_got_);
  visit(v, chunk_sent_);
  visit(v, buf_);
  visit(v, descriptors_done_);
  visit(v, beats_moved_);
  visit(v, error_responses_);
  visit(v, tick_evt_);
}

void IdmaEngine::start_chunk() {
  chunk_beats_ = std::min<std::uint32_t>(max_burst_, cur_.beats - done_beats_);
  chunk_got_ = 0;
  chunk_sent_ = 0;
  buf_.clear();
  state_ = State::kArIssue;
}

void IdmaEngine::eval() {
  axi::AxiReq q{};
  switch (state_) {
    case State::kArIssue:
      q.ar_valid = true;
      q.ar = axi::ArFlit{id_, cur_.src + done_beats_ * 8,
                         static_cast<std::uint8_t>(chunk_beats_ - 1), 3,
                         axi::Burst::kIncr};
      break;
    case State::kRData:
      q.r_ready = true;
      break;
    case State::kAwIssue:
      q.aw_valid = true;
      q.aw = axi::AwFlit{id_, cur_.dst + done_beats_ * 8,
                         static_cast<std::uint8_t>(chunk_beats_ - 1), 3,
                         axi::Burst::kIncr};
      break;
    case State::kWData:
      if (!buf_.empty()) {
        q.w_valid = true;
        q.w = axi::WFlit{buf_.front(), 0xFF,
                         chunk_sent_ + 1 == chunk_beats_};
      }
      break;
    case State::kBWait:
      q.b_ready = true;
      break;
    case State::kIdle:
      break;
  }
  link_.req.write(q);
}

void IdmaEngine::tick() {
  const axi::AxiReq q = link_.req.read();
  const axi::AxiRsp s = link_.rsp.read();
  const State s0 = state_;

  switch (state_) {
    case State::kIdle:
      if (!queue_.empty()) {
        cur_ = queue_.front();
        queue_.pop_front();
        done_beats_ = 0;
        start_chunk();
      }
      break;
    case State::kArIssue:
      if (axi::ar_fire(q, s)) state_ = State::kRData;
      break;
    case State::kRData:
      if (axi::r_fire(q, s)) {
        buf_.push_back(s.r.data);
        if (s.r.resp != axi::Resp::kOkay) ++error_responses_;
        if (++chunk_got_ == chunk_beats_ || s.r.last) {
          state_ = State::kAwIssue;
        }
      }
      break;
    case State::kAwIssue:
      if (axi::aw_fire(q, s)) state_ = State::kWData;
      break;
    case State::kWData:
      if (axi::w_fire(q, s)) {
        buf_.pop_front();
        ++beats_moved_;
        if (++chunk_sent_ == chunk_beats_) state_ = State::kBWait;
      }
      break;
    case State::kBWait:
      if (axi::b_fire(q, s)) {
        if (s.b.resp != axi::Resp::kOkay) ++error_responses_;
        done_beats_ += chunk_beats_;
        if (done_beats_ >= cur_.beats) {
          ++descriptors_done_;
          state_ = State::kIdle;
        } else {
          start_chunk();
        }
      }
      break;
  }
  // Edge activity: anything but an idle->idle edge with an empty
  // descriptor queue can move the engine's request outputs.
  tick_evt_ = s0 != State::kIdle || state_ != State::kIdle ||
              !queue_.empty();
  // An idle engine with no descriptor stays idle until submit().
  set_tick_idle(!tick_evt_);
}

void IdmaEngine::reset() {
  queue_.clear();
  state_ = State::kIdle;
  cur_ = {};
  done_beats_ = chunk_beats_ = chunk_got_ = chunk_sent_ = 0;
  buf_.clear();
  descriptors_done_ = 0;
  beats_moved_ = 0;
  error_responses_ = 0;
  link_.req.force(axi::AxiReq{});
}

}  // namespace soc
