// Tuning-profile subsystem (util/tuning.h): strict typed parsing with
// defaults fallback, env-var round-trip, and the load-bearing contract —
// every knob is dispatch-only, so an adversarial profile that forces every
// gate on or off yields bit-identical results from the hom counter and the
// end-to-end determinacy decision.

#include "util/tuning.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/determinacy.h"
#include "query/cq.h"
#include "structs/generator.h"
#include "structs/structure.h"
#include "hom/hom.h"
#include "util/rng.h"

namespace bagdet {
namespace {

/// Every test mutates process-global state (the active profile, the env
/// var); restore the stock configuration on both sides so test order can
/// never matter.
class TuningTest : public ::testing::Test {
 protected:
  void SetUp() override { Restore(); }
  void TearDown() override { Restore(); }

  static void Restore() {
    ::unsetenv("BAGDET_TUNING_PROFILE");
    ASSERT_FALSE(SetTuningProfile(TuningProfile{}).has_value());
  }

  /// Writes `text` to a fresh temp file and returns its path.
  static std::string WriteTempProfile(const std::string& text,
                                      const char* tag) {
    std::string path = ::testing::TempDir() + "bagdet_tuning_" + tag + ".txt";
    std::ofstream out(path, std::ios::trunc);
    out << text;
    EXPECT_TRUE(out.good());
    return path;
  }
};

TEST_F(TuningTest, DefaultsMatchSeedConstants) {
  // The stock profile IS the pre-profile constant table; if one of these
  // moves, pre-PR behavior is no longer the no-profile behavior.
  const TuningProfile& t = Tuning();
  EXPECT_EQ(t.order_search_max_atoms, 12u);
  EXPECT_EQ(t.domain_min_work, static_cast<std::uint64_t>(1) << 12);
  EXPECT_EQ(t.parallel_split_min_work, static_cast<std::uint64_t>(1) << 16);
  EXPECT_EQ(t.parallel_split_chunks_per_lane, 1u);
  EXPECT_EQ(t.hom_num_threads, 0u);
  EXPECT_EQ(t.hom_cache_max_entries, static_cast<std::size_t>(1) << 20);
  EXPECT_EQ(t.hom_cache_max_bytes, 256ull << 20);
  EXPECT_EQ(t.serve_pool_max_classes, static_cast<std::size_t>(1) << 16);
  EXPECT_EQ(t.serve_pool_max_bytes, 256ull << 20);
  EXPECT_EQ(t.num_threads, 0u);
}

TEST_F(TuningTest, SerializeParseRoundTrip) {
  TuningProfile p;
  p.order_search_max_atoms = 9;
  p.domain_min_work = 123456;
  p.parallel_split_chunks_per_lane = 4;
  p.num_threads = 16;
  TuningError error{};
  std::optional<TuningProfile> parsed =
      ParseTuningProfile(SerializeTuningProfile(p), &error);
  ASSERT_TRUE(parsed.has_value()) << error.ToString();
  EXPECT_EQ(SerializeTuningProfile(*parsed), SerializeTuningProfile(p));
}

TEST_F(TuningTest, CommentsWhitespaceAndPartialProfilesParse) {
  TuningError error{};
  std::optional<TuningProfile> parsed = ParseTuningProfile(
      "# calibrated on host-x\n"
      "\n"
      "  order_search_max_atoms =  7 \n"
      "\t# trailing comment line\n",
      &error);
  ASSERT_TRUE(parsed.has_value()) << error.ToString();
  EXPECT_EQ(parsed->order_search_max_atoms, 7u);
  // Unmentioned keys keep their defaults.
  EXPECT_EQ(parsed->domain_min_work, static_cast<std::uint64_t>(1) << 12);
}

TEST_F(TuningTest, MalformedLinesAreTypedSyntaxErrors) {
  const char* cases[] = {
      "order_search_max_atoms\n",         // No '='.
      "order_search_max_atoms = \n",      // Empty value.
      "order_search_max_atoms = abc\n",   // Not a number.
      "order_search_max_atoms = -3\n",    // Signed.
      "order_search_max_atoms = 0x10\n",  // Hex.
      "order_search_max_atoms = 99999999999999999999999999\n",  // Overflow.
  };
  for (const char* text : cases) {
    TuningError error{};
    EXPECT_FALSE(ParseTuningProfile(text, &error).has_value()) << text;
    EXPECT_EQ(error.code, TuningErrorCode::kSyntaxError) << text;
    EXPECT_EQ(error.line, 1) << text;
  }
}

TEST_F(TuningTest, UnknownKeyIsTyped) {
  TuningError error{};
  EXPECT_FALSE(
      ParseTuningProfile(
          "order_search_max_atoms = 8\norder_search_maxatoms = 8\n", &error)
          .has_value());
  EXPECT_EQ(error.code, TuningErrorCode::kUnknownKey);
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.message.find("order_search_maxatoms"), std::string::npos);
}

TEST_F(TuningTest, OutOfRangeValuesAreTyped) {
  struct Case {
    const char* text;
    int line;
  };
  const Case cases[] = {
      {"order_search_max_atoms = 17\n", 1},      // Engine hard cap is 16.
      {"parallel_split_chunks_per_lane = 0\n", 1},
      {"hom_cache_max_entries = 0\n", 1},
      {"hom_cache_max_bytes = 0\n", 1},
      {"num_threads = 100000\n", 1},
      // Reported against the line that set it, not the first line.
      {"order_search_max_atoms = 4\nhom_num_threads = 5000\n", 2},
  };
  for (const Case& c : cases) {
    TuningError error{};
    EXPECT_FALSE(ParseTuningProfile(c.text, &error).has_value()) << c.text;
    EXPECT_EQ(error.code, TuningErrorCode::kOutOfRange) << c.text;
    EXPECT_EQ(error.line, c.line) << c.text;
  }
}

TEST_F(TuningTest, MissingFileIsIoErrorAndInvalidSetIsRejected) {
  TuningError error{};
  EXPECT_FALSE(LoadTuningProfile("/nonexistent/bagdet/profile", &error)
                   .has_value());
  EXPECT_EQ(error.code, TuningErrorCode::kIoError);

  TuningProfile bad;
  bad.parallel_split_chunks_per_lane = 0;
  std::optional<TuningError> rejected = SetTuningProfile(bad);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->code, TuningErrorCode::kOutOfRange);
  // The active profile is unchanged by a rejected set.
  EXPECT_EQ(Tuning().parallel_split_chunks_per_lane, 1u);
}

TEST_F(TuningTest, EnvVarRoundTrip) {
  TuningProfile p;
  p.order_search_max_atoms = 8;
  p.hom_cache_max_bytes = 1u << 20;
  const std::string path = WriteTempProfile(SerializeTuningProfile(p), "env");
  ASSERT_EQ(::setenv("BAGDET_TUNING_PROFILE", path.c_str(), 1), 0);
  EXPECT_FALSE(ReloadTuningFromEnv().has_value());
  EXPECT_EQ(Tuning().order_search_max_atoms, 8u);
  EXPECT_EQ(Tuning().hom_cache_max_bytes, 1u << 20);

  // Unset → defaults restored.
  ::unsetenv("BAGDET_TUNING_PROFILE");
  EXPECT_FALSE(ReloadTuningFromEnv().has_value());
  EXPECT_EQ(Tuning().order_search_max_atoms, 12u);
  EXPECT_EQ(Tuning().hom_cache_max_bytes, 256ull << 20);
}

TEST_F(TuningTest, BadEnvProfileFallsBackToDefaultsWithTypedError) {
  const std::string path =
      WriteTempProfile("order_search_max_atoms = banana\n", "bad");
  ASSERT_EQ(::setenv("BAGDET_TUNING_PROFILE", path.c_str(), 1), 0);
  std::optional<TuningError> error = ReloadTuningFromEnv();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, TuningErrorCode::kSyntaxError);
  // Fallback contract: stock dispatch, not a crash and not a half-applied
  // profile.
  EXPECT_EQ(Tuning().order_search_max_atoms, 12u);

  ASSERT_EQ(::setenv("BAGDET_TUNING_PROFILE", "/no/such/file", 1), 0);
  error = ReloadTuningFromEnv();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, TuningErrorCode::kIoError);
  EXPECT_EQ(Tuning().order_search_max_atoms, 12u);
}

// --- Dispatch-only differential -------------------------------------------
//
// Two adversarial profiles bracketing the stock one: kAllFast forces every
// gated fast path on (domains + order search + splitting always, max
// oversubscription, starved cache), kAllSlow forces every gate off (no
// order search, huge engage thresholds, serial hom). Results must be
// bit-identical across all three.

TuningProfile AllFastProfile() {
  TuningProfile p;
  p.order_search_max_atoms = 16;  // Engine hard cap.
  p.domain_min_work = 0;          // Always build domains.
  p.parallel_split_min_work = 0;  // Split whenever a second lane exists.
  p.parallel_split_chunks_per_lane = 64;
  p.hom_cache_max_entries = 1;    // Evict on every insert.
  p.hom_cache_max_bytes = 1;
  return p;
}

TuningProfile AllSlowProfile() {
  TuningProfile p;
  p.order_search_max_atoms = 0;   // Greedy order only.
  p.domain_min_work = 1ull << 40; // Domain layer never engages.
  p.parallel_split_min_work = 1ull << 40;
  p.hom_num_threads = 1;
  return p;
}

TEST_F(TuningTest, ExtremeProfilesKeepHomCountsBitIdentical) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  Rng rng(20260808);
  std::vector<std::pair<Structure, Structure>> pairs;
  for (int i = 0; i < 6; ++i) {
    pairs.emplace_back(
        RandomConnectedStructure(schema, 2 + rng.Below(3), &rng, 2, 3),
        RandomStructure(schema, 3 + rng.Below(4), &rng, 2, 3));
  }
  std::vector<BigInt> baseline;
  for (const auto& [from, to] : pairs) baseline.push_back(CountHoms(from, to));
  for (const TuningProfile& p : {AllFastProfile(), AllSlowProfile()}) {
    ASSERT_FALSE(SetTuningProfile(p).has_value());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(CountHoms(pairs[i].first, pairs[i].second), baseline[i])
          << "pair " << i;
    }
  }
}

TEST_F(TuningTest, ExtremeProfilesKeepDeterminacyVerdictsBitIdentical) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  Rng rng(424242);
  // A determined-leaning and an undetermined-leaning instance mix, random
  // enough to pass through every dispatch gate the profiles move.
  std::vector<std::pair<std::vector<ConjunctiveQuery>, ConjunctiveQuery>>
      instances;
  for (int i = 0; i < 4; ++i) {
    Structure body(schema);
    std::size_t components = 1 + rng.Below(2);
    for (std::size_t c = 0; c < components; ++c) {
      body = DisjointUnion(
          body, RandomConnectedStructure(schema, 1 + rng.Below(3), &rng, 2, 3));
    }
    ConjunctiveQuery q = BooleanQueryFromStructure("q", body);
    std::vector<ConjunctiveQuery> views;
    const std::size_t num_views = 1 + rng.Below(2);
    for (std::size_t v = 0; v < num_views; ++v) {
      views.push_back(BooleanQueryFromStructure(
          "v" + std::to_string(v),
          RandomConnectedStructure(schema, 1 + rng.Below(3), &rng, 2, 3)));
    }
    // Include the query itself as a view half the time — those instances
    // are trivially determined, exercising the witness path too.
    if (rng.Chance(1, 2)) views.push_back(q);
    instances.emplace_back(std::move(views), std::move(q));
  }

  std::vector<std::string> baseline;
  for (const auto& [views, q] : instances) {
    baseline.push_back(DecideBagDeterminacy(views, q).Summary());
  }
  for (const TuningProfile& p : {AllFastProfile(), AllSlowProfile()}) {
    ASSERT_FALSE(SetTuningProfile(p).has_value());
    for (std::size_t i = 0; i < instances.size(); ++i) {
      DeterminacyResult result =
          DecideBagDeterminacy(instances[i].first, instances[i].second);
      EXPECT_EQ(result.Summary(), baseline[i]) << "instance " << i;
    }
  }
}

}  // namespace
}  // namespace bagdet
