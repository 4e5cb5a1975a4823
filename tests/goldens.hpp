// Pinned digests for the golden-checked suites. A suite keeps one
// `<key> <fnv1a64 hex>` line per digest in tests/data/<suite>/hashes.txt,
// and its scenarios check what they produce against those lines. The
// digests are the suite's only oracle, so a full run also fails for
// every pinned key that no scenario checked: a scenario that is deleted
// or returns early stops guarding its keys loudly. A run under
// --gtest_filter skips that check. Setting TMU_GOLDENS_OUT=<dir> also
// writes this run's digests to <dir>/<suite>/hashes.txt (the comparison
// still runs), which is how a deliberate behaviour change re-pins them;
// run the whole binary so that every scenario contributes.

#pragma once

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/bytes.hpp"
#include "trace/format.hpp"
#include "trace/recorder.hpp"

namespace goldens {

/// One suite's pinned digests, and every digest this run produced (in
/// check order, for re-pinning). Construct one per test binary at
/// namespace scope: it registers the end-of-run check with GoogleTest.
class Goldens {
 public:
  explicit Goldens(std::string suite)
      : suite_(std::move(suite)),
        file_(std::string(TMU_TEST_DATA_DIR) + "/" + suite_ + "/hashes.txt") {
    std::ifstream in(file_);
    std::string key, hex;
    while (in >> key >> hex) {
      pinned_[key] = std::strtoull(hex.c_str(), nullptr, 16);
    }
    ::testing::AddGlobalTestEnvironment(new Finish(*this));
  }
  // The end-of-run check holds this object's address.
  Goldens(const Goldens&) = delete;
  Goldens& operator=(const Goldens&) = delete;

  /// Expects `digest` to equal the digest pinned under `key`. A key
  /// checked twice in one run (one scenario under two policies) must
  /// also produce the same digest both times.
  void check(const std::string& key, std::uint64_t digest) {
    const auto [seen, fresh] = seen_.emplace(key, digest);
    if (fresh) {
      order_.push_back(key);
    } else {
      EXPECT_EQ(digest, seen->second)
          << key << ": differs from its first check in this run";
    }
    const auto it = pinned_.find(key);
    if (it == pinned_.end()) {
      ADD_FAILURE() << key << ": no pinned digest in " << file_;
      return;
    }
    EXPECT_EQ(digest, it->second) << key << ": digest moved";
  }

 private:
  /// After the last test: re-pins on request, and in a full run checks
  /// that every pinned digest was compared.
  class Finish : public ::testing::Environment {
   public:
    explicit Finish(const Goldens& g) : g_(g) {}
    void TearDown() override {
      if (const char* dir = std::getenv("TMU_GOLDENS_OUT")) g_.write(dir);
      if (::testing::GTEST_FLAG(filter) == "*") g_.expect_all_checked();
    }

   private:
    const Goldens& g_;
  };

  void expect_all_checked() const {
    for (const auto& kv : pinned_) {
      if (seen_.count(kv.first) == 0) {
        ADD_FAILURE() << kv.first << ": pinned in " << file_
                      << " but never checked";
      }
    }
  }

  void write(const std::string& dir) const {
    const std::filesystem::path out_dir = std::filesystem::path(dir) / suite_;
    std::filesystem::create_directories(out_dir);
    std::ofstream out(out_dir / "hashes.txt", std::ios::binary);
    for (const std::string& key : order_) {
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016" PRIx64, seen_.at(key));
      out << key << ' ' << hex << '\n';
    }
  }

  std::string suite_;
  std::string file_;
  std::map<std::string, std::uint64_t> pinned_;
  std::map<std::string, std::uint64_t> seen_;
  std::vector<std::string> order_;
};

/// The digest of one recorder's tmu-axi-trace-v1 stream; a capture that
/// dropped records fails.
inline std::uint64_t trace_digest(const trace::Recorder& r) {
  EXPECT_EQ(r.drop_count(), 0u) << r.buffer().link;
  return sim::bytes::fnv1a64(trace::encode_trace(r.buffer()));
}

}  // namespace goldens
