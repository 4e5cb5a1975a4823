// The three JSON document schemas against committed golden files and a
// mutation sweep.
//
// Golden files (tests/data/canonical_docs/): the canonical topologies'
// tmu-soc-desc-v2 documents, one tmu-campaign-spec-v1 document and one
// tmu-campaign-slice-v1 document, plus hashes.txt with the SocDesc and
// CampaignSpec fingerprints. A desc's hash keys every snapshot and trace
// file recorded on that topology, so the emitted bytes must not drift.
// Each document must match its file byte for byte and round-trip.
// Setting TMU_CANONICAL_DOCS_OUT=<dir> also writes the current documents
// and hashes.txt there (the comparison still runs), which is how a
// deliberate schema change re-pins the files.
//
// Mutation sweep: every value of every golden document is replaced by
// each of a fixed set of wrong-typed and out-of-range values, and an
// unknown key is inserted into every gap of every object. Each mutant
// must either throw std::invalid_argument carrying the decoder's prefix,
// or parse to a value whose to_json() re-parses equal and re-emits the
// same bytes.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/remote.hpp"
#include "sim/bytes.hpp"
#include "sim/jsonfmt.hpp"
#include "sim/jsonparse.hpp"
#include "soc/desc.hpp"
#include "soc/topologies.hpp"

namespace {

using campaign::TrialSpec;
using campaign::remote::CampaignSpec;
using campaign::remote::ReportSlice;
using fault::FaultPoint;
using sim::jsonparse::Json;
using soc::SocDesc;
using tmu::Variant;

const std::string kDocDir = std::string(TMU_TEST_DATA_DIR) + "/canonical_docs";

// ---------------------------------------------------------------------------
// The canonical documents
// ---------------------------------------------------------------------------

tmu::TmuConfig tc_prescaled() {
  tmu::TmuConfig c;
  c.variant = Variant::kTinyCounter;
  c.prescaler_step = 8;
  c.tc_total_budget = 512;
  c.sticky_bit = true;
  return c;
}

/// The leaf-guarded hierarchical Cheshire with the optional sections
/// filled in: a probe, two capture points and a replay manager.
SocDesc observed_desc() {
  SocDesc d = soc::hierarchical_desc(tmu::TmuConfig{});
  d.name = "cheshire_hier_observed";
  soc::ManagerDesc replay;
  replay.name = "replay";
  replay.kind = soc::ManagerKind::kTraceReplay;
  replay.trace_path = "traces/cva6_0.axitrace";
  d.managers.push_back(replay);
  d.probes.push_back({"dram_probe", "cva6_0.out"});
  d.traces.push_back({"eth_trace", "tmu.in"});
  d.traces.push_back({"io_trace", "io_cluster.down"});
  return d;
}

struct NamedDesc {
  const char* file;
  SocDesc desc;
};

std::vector<NamedDesc> canonical_descs() {
  using soc::HierGuardSite;
  return {
      {"ip_testbench.json", soc::ip_testbench_desc()},
      {"ip_testbench_tc_prescaler.json",
       soc::ip_testbench_desc(tc_prescaled())},
      {"cheshire.json", soc::cheshire_desc(tmu::TmuConfig{})},
      {"grid_4x3x1.json", soc::grid_desc(4, 3, 1)},
      {"hier_grid_4x2x2x1.json", soc::hier_grid_desc(4, 2, 2, 1)},
      {"hierarchical_leaf.json",
       soc::hierarchical_desc(tmu::TmuConfig{}, HierGuardSite::kLeaf)},
      {"hierarchical_bridge.json",
       soc::hierarchical_desc(tmu::TmuConfig{}, HierGuardSite::kBridge)},
      {"hierarchical_observed.json", observed_desc()},
  };
}

TrialSpec fault_trial(Variant v, FaultPoint p) {
  TrialSpec t;
  t.cfg.variant = v;
  t.cfg.tc_total_budget = 200;
  t.point = p;
  t.traffic.enabled = true;
  t.traffic.p_new_txn = 0.3;
  t.traffic.max_outstanding = 6;
  t.inject_delay_max = 300;
  t.detect_budget = 3000;
  return t;
}

/// Both variants, several fault points, RLE runs, an explicitly seeded
/// trial, a warm-up trial with trace links, and a second topology.
CampaignSpec canonical_spec() {
  CampaignSpec spec;
  spec.base_seed = 0x5EED;
  spec.scenarios.push_back(campaign::make_scenario(
      "fc/aw_ready_stuck",
      fault_trial(Variant::kFullCounter, FaultPoint::kAwReadyStuck), 3));
  TrialSpec tc = fault_trial(Variant::kTinyCounter, FaultPoint::kRValidStuck);
  tc.exercise_recovery = true;
  spec.scenarios.push_back(campaign::make_scenario("tc/r_valid_stuck", tc, 2));

  campaign::Scenario mixed;
  mixed.label = "mixed";
  mixed.trials.push_back(
      fault_trial(Variant::kFullCounter, FaultPoint::kWLastEarly));
  TrialSpec seeded =
      fault_trial(Variant::kTinyCounter, FaultPoint::kBValidStuck);
  seeded.seed = 42;
  seeded.max_cycles = 9000;
  mixed.trials.push_back(seeded);
  TrialSpec warm = fault_trial(Variant::kFullCounter, FaultPoint::kSpuriousR);
  warm.warmup_cycles = 1500;
  warm.trace_links = {"gen.out", "tmu.in"};
  mixed.trials.push_back(warm);
  mixed.trials.push_back(warm);
  spec.scenarios.push_back(mixed);

  TrialSpec grid = fault_trial(Variant::kFullCounter, FaultPoint::kNone);
  grid.desc = soc::grid_desc(2, 2, 1);
  grid.soak_cycles = 2000;
  spec.scenarios.push_back(campaign::make_scenario("grid/healthy", grid, 2));
  return spec;
}

/// Trials [4, 7) of canonical_spec() with fixed results: a detection
/// with counters, stats and histograms, a failed trial, and a timed-out
/// trial with an empty metrics snapshot.
ReportSlice canonical_slice() {
  const CampaignSpec spec = canonical_spec();
  ReportSlice s;
  s.spec_hash = spec.hash();
  s.topology_hash = spec.topologies_hash();
  s.begin = 4;
  s.end = 7;

  campaign::TrialResult detected;
  detected.detected = true;
  detected.recovered = true;
  detected.traffic_resumed = true;
  detected.inject_delay = 17;
  detected.detect_cycle = 1234;
  detected.latency = 33;
  detected.cycles_run = 4096;
  detected.eval_passes = 12000;
  detected.completed_txns = 41;
  detected.error_responses = 2;
  detected.metrics.counters["gen.txns"] = 41;
  detected.metrics.counters["sched.tmu.evals"] = 3021;
  sim::RunningStats& lat = detected.metrics.stats["probe.read_latency"];
  for (const double x : {3.0, 7.25, 11.0, 1.0 / 3.0}) lat.add(x);
  detected.metrics.stats["probe.unused"];
  sim::Histogram& occ = detected.metrics.histograms["probe.occupancy"];
  occ.add_count(0, 3);
  occ.add_count(2, 5);
  occ.add_count(17, 1);

  campaign::TrialResult failed;
  failed.failed = true;
  failed.error = "SocBuilder: no \"gen\" manager\n(tab\there)";

  campaign::TrialResult timed_out;
  timed_out.timed_out = true;
  timed_out.cycles_run = 9000;
  timed_out.data_mismatches = 1;

  s.results = {detected, failed, timed_out};
  return s;
}

struct Doc {
  std::string file;
  std::string json;
};

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// Every canonical document, and the hashes.txt manifest last.
std::vector<Doc> canonical_documents() {
  std::vector<Doc> docs;
  std::string manifest;
  for (const NamedDesc& d : canonical_descs()) {
    docs.push_back({d.file, d.desc.to_json()});
    manifest += std::string(d.file) + " " + hex(d.desc.hash()) + "\n";
  }
  const CampaignSpec spec = canonical_spec();
  docs.push_back({"spec.json", spec.to_json()});
  manifest += "spec.json " + hex(spec.hash()) + "\n";
  docs.push_back({"slice.json", canonical_slice().to_json()});
  docs.push_back({"hashes.txt", manifest});
  return docs;
}

std::string read_doc(const std::string& file) {
  std::string text;
  EXPECT_EQ(sim::bytes::read_file(kDocDir + "/" + file, text),
            sim::bytes::FileStatus::kOk)
      << file;
  return text;
}

// ---------------------------------------------------------------------------
// Golden pin
// ---------------------------------------------------------------------------

TEST(CanonicalDocs, MatchTheCommittedFilesByteForByte) {
  const char* out_dir = std::getenv("TMU_CANONICAL_DOCS_OUT");
  for (const Doc& d : canonical_documents()) {
    if (out_dir != nullptr) {
      std::ofstream(std::string(out_dir) + "/" + d.file, std::ios::binary)
          << d.json;
    }
    EXPECT_EQ(read_doc(d.file), d.json) << d.file;
  }
}

TEST(CanonicalDocs, CommittedFilesRoundTrip) {
  for (const NamedDesc& d : canonical_descs()) {
    const std::string text = read_doc(d.file);
    const SocDesc back = SocDesc::from_json(text);
    EXPECT_EQ(back, d.desc) << d.file;
    EXPECT_EQ(back.to_json(), text) << d.file;
  }
  const std::string spec_text = read_doc("spec.json");
  const CampaignSpec spec = CampaignSpec::from_json(spec_text);
  EXPECT_EQ(spec, canonical_spec());
  EXPECT_EQ(spec.to_json(), spec_text);
  EXPECT_EQ(spec.total_trials(), 11u);

  const std::string slice_text = read_doc("slice.json");
  const ReportSlice slice = ReportSlice::from_json(slice_text);
  EXPECT_EQ(slice.to_json(), slice_text);
  EXPECT_EQ(slice.results.size(), 3u);
  EXPECT_EQ(slice.results[1].error, canonical_slice().results[1].error);
}

// ---------------------------------------------------------------------------
// Mutation sweep
// ---------------------------------------------------------------------------

std::string quote(const std::string& s) {
  return "\"" + sim::jsonfmt::json_escape(s) + "\"";
}

/// A parsed document re-serialized once, recording the byte span of
/// every value and the offset of every gap between an object's keys, so
/// each mutant is one splice of the text.
class Splicer {
 public:
  explicit Splicer(const std::string& doc) {
    emit(sim::jsonparse::parse(doc, "mutation sweep"), "$", true);
  }

  /// Calls f(mutant text, description) for every mutant.
  void for_each_mutant(
      const std::function<void(const std::string&, const std::string&)>& f)
      const {
    static const char* const kValues[] = {
        "\"zz\"", "-1",   "1.5", "true", "[1]", "{}", "{\"q\": 1}",
        "99999999999999999999", "null", "300", "[\"x\"]"};
    for (const Site& s : values_) {
      for (const char* value : kValues) {
        f(text_.substr(0, s.begin) + value + text_.substr(s.end),
          s.what + " = " + value);
      }
    }
    for (const Site& s : gaps_) {
      f(text_.substr(0, s.begin) + s.insert + text_.substr(s.begin), s.what);
    }
  }

 private:
  struct Site {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::string insert;
    std::string what;
  };

  void emit(const Json& v, const std::string& path, bool root) {
    const std::size_t begin = text_.size();
    switch (v.kind) {
      case Json::Kind::kNull: text_ += "null"; break;
      case Json::Kind::kBool: text_ += v.b ? "true" : "false"; break;
      case Json::Kind::kNumber: {
        char buf[32];
        if (v.is_unsigned) {
          std::snprintf(buf, sizeof buf, "%" PRIu64, v.unum);
        } else {
          std::snprintf(buf, sizeof buf, "%.17g", v.num);
        }
        text_ += buf;
        break;
      }
      case Json::Kind::kString: text_ += quote(v.str); break;
      case Json::Kind::kArray:
        text_ += '[';
        for (std::size_t i = 0; i < v.arr.size(); ++i) {
          if (i != 0) text_ += ", ";
          emit(v.arr[i], path + "[" + std::to_string(i) + "]", false);
        }
        text_ += ']';
        break;
      case Json::Kind::kObject:
        text_ += '{';
        for (std::size_t i = 0; i < v.obj.size(); ++i) {
          if (i != 0) text_ += ", ";
          gaps_.push_back({text_.size(), 0, "\"zz_unknown\": 1, ",
                           path + " + unknown key before " + v.obj[i].first});
          text_ += quote(v.obj[i].first) + ": ";
          emit(v.obj[i].second, path + "." + v.obj[i].first, false);
        }
        gaps_.push_back(
            {text_.size(), 0,
             v.obj.empty() ? "\"zz_unknown\": 1" : ", \"zz_unknown\": 1",
             path + " + unknown key at the end"});
        text_ += '}';
        break;
    }
    if (!root) values_.push_back({begin, text_.size(), "", path});
  }

  std::string text_;
  std::vector<Site> values_;
  std::vector<Site> gaps_;
};

struct Tally {
  std::size_t mutants = 0;
  std::size_t accepted = 0;
};

/// Sweeps one document through Decoder::from_json. `equal` compares two
/// decoded values.
template <typename Decoder>
void sweep(const std::string& doc, const std::string& prefix, Tally& tally,
           const std::function<bool(const Decoder&, const Decoder&)>& equal) {
  Splicer(doc).for_each_mutant([&](const std::string& text,
                                  const std::string& what) {
    ++tally.mutants;
    Decoder x;
    try {
      x = Decoder::from_json(text);
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(prefix + ": ", 0), 0u)
          << what << ": " << e.what();
      return;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": threw a non-invalid_argument: " << e.what();
      return;
    }
    ++tally.accepted;
    const std::string once = x.to_json();
    try {
      const Decoder back = Decoder::from_json(once);
      EXPECT_TRUE(equal(back, x)) << what;
      EXPECT_EQ(back.to_json(), once) << what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": accepted, but its re-emission fails: "
                    << e.what();
    }
  });
}

TEST(SerdeMutation, EveryMutantIsRejectedByNameOrRoundTrips) {
  Tally desc, spec, slice;
  for (const NamedDesc& d : canonical_descs()) {
    sweep<SocDesc>(d.desc.to_json(), "SocDesc::from_json", desc,
                   [](const SocDesc& a, const SocDesc& b) { return a == b; });
  }
  sweep<CampaignSpec>(
      canonical_spec().to_json(), "CampaignSpec::from_json", spec,
      [](const CampaignSpec& a, const CampaignSpec& b) { return a == b; });
  sweep<ReportSlice>(canonical_slice().to_json(), "ReportSlice::from_json",
                     slice, [](const ReportSlice& a, const ReportSlice& b) {
                       return a.to_json() == b.to_json();
                     });
  // Both outcomes occur in every schema, so neither branch is vacuous.
  for (const Tally* t : {&desc, &spec, &slice}) {
    EXPECT_GT(t->accepted, 0u);
    EXPECT_LT(t->accepted, t->mutants);
  }
  std::printf(
      "desc %zu mutants (%zu accepted), spec %zu (%zu), slice %zu (%zu)\n",
      desc.mutants, desc.accepted, spec.mutants, spec.accepted, slice.mutants,
      slice.accepted);
}

}  // namespace
