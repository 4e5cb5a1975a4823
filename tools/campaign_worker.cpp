// campaign_worker: runs one trial range of a serialized campaign spec
// and writes a partial-report slice — the process the
// campaign::remote::Dispatcher forks per shard.
//
//   campaign_worker --spec spec.json --begin 0 --end 128
//                   --out slice.json [--progress progress.log]
//
// The progress file gains one line per trial started (the dispatcher's
// heartbeat: a file that stops growing past the deadline marks the
// worker hung). The slice is written atomically (tmp + rename), so the
// dispatcher never reads a half-written document. Exit 0 means a slice
// was written; any other exit (or a slice that fails validation) makes
// the dispatcher re-issue the range.
//
// Built-in fault injection, for CI-gating the dispatcher's recovery
// paths against real process failures:
//
//   TMU_WORKER_FAIL=crash|hang|corrupt@<trial>[,...]   fail when
//     reaching the global trial index: crash = _exit mid-range, hang =
//     stop making progress forever (the deadline must reap us), corrupt
//     = exit 0 with garbage instead of a slice. A comma-separated list
//     arms several directives at once; each fires in whichever worker's
//     range covers its trial, so one campaign can lose a crashed, a
//     hung and a corrupt worker simultaneously.
//   TMU_WORKER_FAIL_TOKEN=<base>   directive i fires only if <base>.<i>
//     does not exist yet, creating it first — i.e. each directive fires
//     exactly once across retries, so the re-issued range succeeds and
//     the merged report must come out clean.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/remote.hpp"
#include "sim/bytes.hpp"

namespace {

struct FailPlan {
  enum class Mode { kCrash, kHang, kCorrupt };
  Mode mode = Mode::kCrash;
  std::uint64_t trial = 0;
  std::string token;  ///< fail-once marker path; empty = always fire
};

std::vector<FailPlan> parse_fail_plans() {
  std::vector<FailPlan> plans;
  const char* spec = std::getenv("TMU_WORKER_FAIL");
  if (spec == nullptr || *spec == '\0') return plans;
  const char* token_base = std::getenv("TMU_WORKER_FAIL_TOKEN");
  std::string rest = spec;
  std::size_t idx = 0;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string part = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    const std::size_t at = part.find('@');
    const std::string mode = part.substr(0, at);
    FailPlan plan;
    if (mode == "crash") {
      plan.mode = FailPlan::Mode::kCrash;
    } else if (mode == "hang") {
      plan.mode = FailPlan::Mode::kHang;
    } else if (mode == "corrupt") {
      plan.mode = FailPlan::Mode::kCorrupt;
    } else {
      std::fprintf(stderr, "campaign_worker: bad TMU_WORKER_FAIL mode '%s'\n",
                   mode.c_str());
      std::exit(2);
    }
    if (at != std::string::npos) {
      plan.trial = std::strtoull(part.c_str() + at + 1, nullptr, 10);
    }
    if (token_base != nullptr && *token_base != '\0') {
      plan.token = std::string(token_base) + "." + std::to_string(idx);
    }
    plans.push_back(std::move(plan));
    ++idx;
  }
  return plans;
}

/// True if this directive should fire now (consuming its fail-once
/// token). With a token that already exists, a previous attempt took
/// the failure and this attempt runs clean — what lets recovery tests
/// assert a full retry success rather than a retry loop.
bool consume(FailPlan& plan) {
  if (plan.token.empty()) return true;
  if (std::ifstream(plan.token).good()) return false;
  std::ofstream f(plan.token);
  f << "consumed\n";
  f.close();
  return true;
}

std::string read_file(const std::string& path) {
  std::string text;
  if (sim::bytes::read_file(path, text) != sim::bytes::FileStatus::kOk) {
    throw std::runtime_error("cannot read " + path);
  }
  return text;
}

/// Thrown from the progress hook to abort the range for corrupt mode.
struct CorruptAbort {};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: campaign_worker --spec <spec.json> --begin <n> "
               "--end <n> --out <slice.json> [--progress <log>]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path, out_path, progress_path;
  std::uint64_t begin = 0, end = 0;
  bool have_begin = false, have_end = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* val = argv[++i];
    if (arg == "--spec") {
      spec_path = val;
    } else if (arg == "--begin") {
      begin = std::strtoull(val, nullptr, 10);
      have_begin = true;
    } else if (arg == "--end") {
      end = std::strtoull(val, nullptr, 10);
      have_end = true;
    } else if (arg == "--out") {
      out_path = val;
    } else if (arg == "--progress") {
      progress_path = val;
    } else {
      usage();
    }
  }
  if (spec_path.empty() || out_path.empty() || !have_begin || !have_end) {
    usage();
  }

  try {
    const campaign::remote::CampaignSpec spec =
        campaign::remote::CampaignSpec::from_json(read_file(spec_path));

    std::vector<FailPlan> plans = parse_fail_plans();
    std::ofstream progress;
    if (!progress_path.empty()) {
      progress.open(progress_path, std::ios::app);
    }
    const auto on_progress = [&](std::uint64_t next) {
      if (progress.is_open()) {
        progress << next << "\n";
        progress.flush();
      }
      for (FailPlan& plan : plans) {
        if (next != plan.trial || next >= end || !consume(plan)) continue;
        switch (plan.mode) {
          case FailPlan::Mode::kCrash:
            std::_Exit(3);
          case FailPlan::Mode::kHang:
            // Stop making progress but stay alive: only the
            // dispatcher's deadline can end this worker.
            for (;;) {
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
            }
          case FailPlan::Mode::kCorrupt:
            throw CorruptAbort{};
        }
      }
    };

    std::string text;
    try {
      text = campaign::remote::run_range(spec, begin, end, on_progress)
                 .to_json();
    } catch (const CorruptAbort&) {
      // A garbage-emitting worker: claims success, delivers junk. The
      // dispatcher must catch this via slice validation, not trust
      // exit codes.
      text = "{ this is not a report slice ]\n";
    }
    const std::string tmp = out_path + ".tmp";
    if (sim::bytes::write_file(tmp, text) != sim::bytes::FileStatus::kOk) {
      throw std::runtime_error("cannot write " + tmp);
    }
    if (std::rename(tmp.c_str(), out_path.c_str()) != 0) {
      throw std::runtime_error("cannot rename " + tmp + " to " + out_path);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_worker: %s\n", e.what());
    return 1;
  }
}
