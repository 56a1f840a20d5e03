// Instance I/O v2: write_instance ∘ parse_instance must be the identity
// for ALL FOUR instance kinds (the extended kinds used to be silently
// truncated to their standard-model view), and malformed input must fail
// with line-numbered errors instead of producing a partial instance.
#include <gtest/gtest.h>

#include <sstream>

#include "core/io.hpp"
#include "core/rng.hpp"
#include "engine/adapters.hpp"
#include "gen/extended_instances.hpp"
#include "gen/random_instances.hpp"

namespace abt {
namespace {

using core::ProblemInstance;

ProblemInstance round_trip(const ProblemInstance& inst) {
  std::ostringstream out;
  std::string why;
  EXPECT_TRUE(core::write_instance(out, inst, &why)) << why;
  std::istringstream in(out.str());
  std::string error;
  const auto parsed = core::parse_instance(in, &error);
  EXPECT_TRUE(parsed.has_value()) << error << "\n--- emitted:\n" << out.str();
  return parsed.value_or(ProblemInstance{});
}

// ---------------------------------------------------------------------------
// parse(write(x)) == x, randomized over every kind.

TEST(InstanceIoV2, RoundTripsRandomSlottedInstances) {
  core::Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    gen::SlottedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 30));
    params.capacity = static_cast<int>(rng.uniform_int(1, 5));
    const auto original = gen::random_slotted(rng, params);
    const ProblemInstance back = round_trip(core::make_instance(original));
    ASSERT_EQ(back.family, core::Family::kActive);
    ASSERT_EQ(back.kind, core::InstanceKind::kStandard);
    EXPECT_EQ(back.slotted.capacity(), original.capacity());
    EXPECT_EQ(back.slotted.jobs(), original.jobs());
  }
}

TEST(InstanceIoV2, RoundTripsRandomContinuousInstances) {
  core::Rng rng(4243);
  for (int trial = 0; trial < 25; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 30));
    params.capacity = static_cast<int>(rng.uniform_int(1, 5));
    params.max_slack = trial % 2 == 0 ? 0.0 : 1.7;
    const auto original = gen::random_continuous(rng, params);
    const ProblemInstance back = round_trip(core::make_instance(original));
    ASSERT_EQ(back.family, core::Family::kBusy);
    ASSERT_EQ(back.kind, core::InstanceKind::kStandard);
    EXPECT_EQ(back.continuous.capacity(), original.capacity());
    EXPECT_EQ(back.continuous.jobs(), original.jobs())
        << "precision-17 round trip must be exact";
  }
}

TEST(InstanceIoV2, RoundTripsRandomWeightedInstances) {
  core::Rng rng(4244);
  for (int trial = 0; trial < 25; ++trial) {
    gen::WeightedParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 20));
    params.capacity = static_cast<int>(rng.uniform_int(1, 6));
    params.max_slack = trial % 2 == 0 ? 0.0 : 1.1;
    const auto original = gen::random_weighted(rng, params);
    const ProblemInstance back =
        round_trip(engine::make_weighted_instance(original));
    ASSERT_EQ(back.family, core::Family::kBusy);
    ASSERT_EQ(back.kind, core::InstanceKind::kWeighted);
    const busy::WeightedInstance& parsed = engine::weighted_of(back);
    EXPECT_EQ(parsed.capacity(), original.capacity());
    EXPECT_EQ(parsed.jobs(), original.jobs())
        << "weights and precision-17 doubles must survive the round trip";
  }
}

TEST(InstanceIoV2, RoundTripsRandomMultiWindowInstances) {
  core::Rng rng(4245);
  for (int trial = 0; trial < 25; ++trial) {
    gen::MultiWindowParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(1, 14));
    params.capacity = static_cast<int>(rng.uniform_int(1, 4));
    const auto original = gen::random_multi_window(rng, params);
    const ProblemInstance back =
        round_trip(engine::make_multi_window_instance(original));
    ASSERT_EQ(back.family, core::Family::kActive);
    ASSERT_EQ(back.kind, core::InstanceKind::kMultiWindow);
    const active::MultiWindowInstance& parsed = engine::multi_window_of(back);
    EXPECT_EQ(parsed.capacity(), original.capacity());
    EXPECT_EQ(parsed.jobs(), original.jobs())
        << "window unions must survive the round trip";
  }
}

// ---------------------------------------------------------------------------
// Extended-model parsing specifics.

TEST(InstanceIoV2, WeightDefaultsToOne) {
  std::istringstream in(
      "model weighted\n"
      "capacity 3\n"
      "job 0 2 2\n"          // no weight line -> width 1
      "job 1 4 3\n"
      "weight 2\n");
  const auto parsed = core::parse_instance(in);
  ASSERT_TRUE(parsed.has_value());
  const busy::WeightedInstance& inst = engine::weighted_of(*parsed);
  EXPECT_EQ(inst.job(0).width, 1);
  EXPECT_EQ(inst.job(1).width, 2);
}

TEST(InstanceIoV2, ParsesMultiWindowUnions) {
  std::istringstream in(
      "model multi-window\n"
      "capacity 2\n"
      "job 3\n"
      "window 0 2\n"
      "window 4 7   # second fragment\n"
      "job 1\n"
      "window 1 2\n");
  const auto parsed = core::parse_instance(in);
  ASSERT_TRUE(parsed.has_value());
  const active::MultiWindowInstance& inst = engine::multi_window_of(*parsed);
  ASSERT_EQ(inst.size(), 2);
  EXPECT_EQ(inst.job(0).windows.size(), 2u);
  EXPECT_EQ(inst.job(0).window_slots(), 5);
  EXPECT_EQ(inst.horizon(), 7);
}

// ---------------------------------------------------------------------------
// Malformed input: line-numbered errors, never a partial instance.

struct MalformedCase {
  const char* text;
  const char* expect_line;     ///< "line N" substring.
  const char* expect_message;  ///< Diagnostic substring.
};

class InstanceIoV2Malformed
    : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(InstanceIoV2Malformed, FailsWithLineNumberedError) {
  std::istringstream in(GetParam().text);
  std::string error;
  EXPECT_FALSE(core::parse_instance(in, &error).has_value());
  EXPECT_NE(error.find(GetParam().expect_line), std::string::npos) << error;
  EXPECT_NE(error.find(GetParam().expect_message), std::string::npos)
      << error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, InstanceIoV2Malformed,
    ::testing::Values(
        MalformedCase{"model weighted\ncapacity 3\nweight 2\n", "line 3",
                      "weight before any job"},
        MalformedCase{"model weighted\ncapacity 3\njob 0 2 2\nweight 0\n",
                      "line 4", "weight needs a positive integer"},
        MalformedCase{"model weighted\ncapacity 3\njob 0 2\n", "line 3",
                      "job needs: release deadline length"},
        MalformedCase{"model weighted\ncapacity 3\nwindow 0 2\n", "line 3",
                      "unknown directive 'window' in model weighted"},
        // Structural validation happens at end of file: width 5 > g = 3.
        MalformedCase{"model weighted\ncapacity 3\njob 0 2 2\nweight 5\n",
                      "line 5", "width exceeds capacity"},
        MalformedCase{"model multi-window\ncapacity 2\nwindow 0 2\n",
                      "line 3", "window before any job"},
        MalformedCase{"model multi-window\ncapacity 2\njob x\n", "line 3",
                      "job needs: length"},
        MalformedCase{"model multi-window\ncapacity 2\njob 2\nwindow 3\n",
                      "line 4", "window needs: release deadline"},
        // Overlapping windows are a structural error, reported at EOF.
        MalformedCase{
            "model multi-window\ncapacity 2\njob 2\nwindow 0 3\nwindow 2 5\n",
            "line 6", "windows overlap"},
        MalformedCase{"model multi-window\ncapacity 2\njob 4\nwindow 0 2\n",
                      "line 5", "windows too small"},
        MalformedCase{"model weighted\njob 0 2 2\n", "line 3", "capacity"},
        MalformedCase{"model slotted\nmodel weighted\n", "line 2",
                      "duplicate model"},
        MalformedCase{"model slotted\ncapacity 3\njob 0 4 2\ncapacity 2\n",
                      "line 4", "duplicate capacity"},
        MalformedCase{"model teleport\n", "line 1", "unknown model"},
        // Numbers are strict full tokens: integers are never truncated
        // from a fraction or a glued suffix, and reals are finite.
        MalformedCase{"model slotted\ncapacity 2\njob 1 5 2.5\n", "line 3",
                      "job needs: release deadline length"},
        MalformedCase{"model slotted\ncapacity 2.9\n", "line 2",
                      "capacity needs a positive integer"},
        MalformedCase{"model slotted\ncapacity 2x\n", "line 2",
                      "capacity needs a positive integer"},
        MalformedCase{"model continuous\ncapacity 2\njob 0 4 1.5x\n",
                      "line 3", "job needs: release deadline length"},
        MalformedCase{"model continuous\ncapacity 2\njob 0 0x10 1\n",
                      "line 3", "job needs: release deadline length"},
        MalformedCase{"model continuous\ncapacity 2\njob 0 1e-400 1\n",
                      "line 3", "job needs: release deadline length"},
        MalformedCase{"model weighted\ncapacity 3\njob 0 2 2\nweight 2x\n",
                      "line 4", "weight needs a positive integer"},
        MalformedCase{"model weighted\ncapacity 3\njob 0 2 2\nweight 1.5\n",
                      "line 4", "weight needs a positive integer"},
        MalformedCase{"model multi-window\ncapacity 2\njob 2.5\n", "line 3",
                      "job needs: length"},
        MalformedCase{"model multi-window\ncapacity 2\njob 2\nwindow 0 4x\n",
                      "line 4", "window needs: release deadline"},
        // Every directive rejects trailing tokens, in all four models.
        MalformedCase{"model slotted extra\n", "line 1",
                      "trailing tokens after model directive"},
        MalformedCase{"model slotted\ncapacity 2 3\n", "line 2",
                      "trailing tokens after capacity directive"},
        MalformedCase{"model slotted\ncapacity 2\njob 1 5 2 junk\n",
                      "line 3", "trailing tokens after job directive"},
        MalformedCase{"model continuous\ncapacity 2\njob 0 4 1 junk\n",
                      "line 3", "trailing tokens after job directive"},
        MalformedCase{"model weighted\ncapacity 3\njob 0 2 2\nweight 2 2\n",
                      "line 4", "trailing tokens after weight directive"},
        MalformedCase{"model multi-window\ncapacity 2\njob 2 2\n", "line 3",
                      "trailing tokens after job directive"},
        MalformedCase{
            "model multi-window\ncapacity 2\njob 2\nwindow 0 4 9\n",
            "line 4", "trailing tokens after window directive"},
        // In-range slot times whose window or total work does not fit.
        MalformedCase{
            "model slotted\ncapacity 1\njob 5 -9223372036854775807 1\n",
            "line 4", "window shorter than length"},
        MalformedCase{"model slotted\ncapacity 1\n"
                      "job 0 9223372036854775807 9223372036854775807\n"
                      "job 0 9223372036854775807 9223372036854775807\n",
                      "line 5", "total work overflows"},
        MalformedCase{"model multi-window\ncapacity 1\n"
                      "job 9223372036854775807\nwindow 0 9223372036854775807\n"
                      "job 1\nwindow 0 1\n",
                      "line 7", "total work overflows"}));

// The lexer takes CRLF line ends, tabs, comments and signed numbers.
TEST(InstanceIoV2, LexerAcceptsCrlfTabsAndSigns) {
  std::istringstream in(
      "model slotted\r\ncapacity\t+2\r\n\r\njob +0 4\t2 # note\r\n");
  std::string error;
  const auto parsed = core::parse_instance(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->slotted.capacity(), 2);
  ASSERT_EQ(parsed->slotted.size(), 1);
  EXPECT_EQ(parsed->slotted.jobs()[0].deadline, 4);
  EXPECT_EQ(parsed->slotted.jobs()[0].length, 2);
}

// The unknown-model diagnostic names the registered extended models, so a
// binary missing the codecs is distinguishable from a typo.
TEST(InstanceIoV2, UnknownModelListsRegisteredModels) {
  std::istringstream in("model teleport\n");
  std::string error;
  EXPECT_FALSE(core::parse_instance(in, &error).has_value());
  EXPECT_NE(error.find("weighted"), std::string::npos) << error;
  EXPECT_NE(error.find("multi-window"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Fail-loudly contract: an extension without serialization hooks must make
// write_instance return false, never a lossy standard-model emit.

class OpaqueExtension final : public core::InstanceExtension {
 public:
  [[nodiscard]] core::InstanceKind kind() const override {
    return core::InstanceKind::kWeighted;
  }
  [[nodiscard]] int size() const override { return 0; }
  [[nodiscard]] int capacity() const override { return 1; }
  [[nodiscard]] double lower_bound() const override { return 0.0; }
  [[nodiscard]] std::string describe() const override { return "opaque"; }
  // No model_name / write_body overrides: not serializable.
};

TEST(InstanceIoV2, UnserializableExtensionFailsLoudly) {
  const ProblemInstance inst = core::make_instance(
      core::Family::kBusy, std::make_shared<const OpaqueExtension>());
  std::ostringstream out;
  std::string why;
  EXPECT_FALSE(core::write_instance(out, inst, &why));
  EXPECT_TRUE(out.str().empty()) << "must not emit a partial instance";
  EXPECT_NE(why.find("no serialization support"), std::string::npos) << why;
}

}  // namespace
}  // namespace abt
