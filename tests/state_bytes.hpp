// Module state as bytes, for the suites that compare netlists module by
// module or feed a visit_state() walk by hand: a saver, a loader that
// reads a byte image in place, and state_of(), one module's own
// visit_state() walk. A saver's fail() throws std::logic_error (a saver
// never fails on in-contract state); a loader's throws
// std::runtime_error, the error a corrupt image raises.

#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/module.hpp"
#include "sim/state.hpp"

namespace state_bytes {

struct SaveBytes final : sim::StateVisitor {
  [[noreturn]] void fail(const std::string& msg) override {
    throw std::logic_error(msg);
  }
};

struct LoadBytes final : sim::StateVisitor {
  explicit LoadBytes(const std::vector<unsigned char>& bytes)
      : StateVisitor(bytes.data(), bytes.size()) {}
  explicit LoadBytes(std::vector<unsigned char>&&) = delete;  // reads in place
  [[noreturn]] void fail(const std::string& msg) override {
    throw std::runtime_error(msg);
  }
};

/// The bytes `m`'s own visit_state() walk saves.
inline std::vector<unsigned char> state_of(sim::Module& m) {
  SaveBytes save;
  m.visit_state(save);
  return save.take_bytes();
}

}  // namespace state_bytes
