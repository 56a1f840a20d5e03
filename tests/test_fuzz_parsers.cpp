// Seeded mutation fuzzing of every line-format reader: instance files
// (core::parse_instance), abtd solve payloads and frames
// (service::parse_solve_payload, service::read_frame) and campaign grids
// (engine::parse_campaign).
//
// The seeds are the data/ corpus, payloads shaped like the svc-mixed
// benchmark's requests, frame wires and the campaign presets. Every
// mutant gets one to three edits: byte flips, token splices (keywords of
// every format and the number spellings the strict reader must judge),
// line drops and line duplications. The property: the mutant parses to a
// value whose write -> parse round trip is a fixed point, or it fails with
// a "line N: " diagnostic whose N lies within the input (one past the last
// line for end-of-input errors).
// Frame headers are single lines, so a rejected frame only needs a
// non-empty diagnostic. Nothing may crash; the sanitizer build runs this
// same loop, with the same seed and iteration count.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/io.hpp"
#include "core/lines.hpp"
#include "core/rng.hpp"
#include "engine/adapters.hpp"
#include "engine/campaign.hpp"
#include "service/protocol.hpp"

namespace abt {
namespace {

constexpr std::uint64_t kFuzzSeed = 15;
constexpr int kMutantsPerSeed = 1500;

/// Spliced tokens: directive words of the line formats and the frame
/// header, plus number spellings at and beyond every edge of the grammar.
/// The words of the retired selector-model format stay in the list: the
/// mutator draws token indices from it, so removing them would change
/// every other reader's mutation stream.
const std::vector<std::string>& splice_tokens() {
  static const std::vector<std::string> kTokens = {
      "model", "slotted", "continuous", "weighted", "multi-window",
      "capacity", "job", "weight", "window", "instance", "id", "solvers",
      "budget-ms", "accept-gap", "progress", "format", "csv",
      "selector-model", "v1", "features", "mu", "sigma", "centroid",
      "center", "rank", "scenario", "interval", "n", "g", "slack",
      "horizon", "trials", "seed", "eps", "solvers:interval", "abt1",
      "solve", "cancel", "k=v", "a=b=c", "=", "#", "0", "1", "-1", "+2",
      "2.5", "1e3", "1e-400", "1e400", ".5", "5.", "-0", "+", "-", "+-1",
      "nan", "inf", "-inf", "0x10", "2x", "007", "2147483648",
      "4294967297", "18446744073709551616", "99999999999999999999",
      "9223372036854775807", "-9223372036854775808", "1.7976931348623157e308"};
  return kTokens;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string text) {
    const std::int64_t edits = rng_.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e) {
      switch (rng_.uniform_int(0, 3)) {
        case 0: flip_byte(text); break;
        case 1: splice_token(text); break;
        case 2: drop_line(text); break;
        default: duplicate_line(text); break;
      }
    }
    return text;
  }

 private:
  /// Uniform index in [0, n); n > 0.
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  void flip_byte(std::string& text) {
    static constexpr std::string_view kBytes = "0123456789.-+eE \t\r\n#x=";
    const char c = rng_.flip(0.25)
                       ? static_cast<char>(rng_.uniform_int(0, 255))
                       : kBytes[pick(kBytes.size())];
    if (text.empty()) {
      text.push_back(c);
    } else {
      text[pick(text.size())] = c;
    }
  }

  void splice_token(std::string& text) {
    const std::string& token = splice_tokens()[pick(splice_tokens().size())];
    const std::size_t at = pick(text.size() + 1);
    if (at < text.size() && rng_.flip(0.5)) {
      // Replace the whitespace-delimited token under `at`.
      std::size_t begin = at;
      std::size_t end = at;
      while (begin > 0 && !core::is_space(text[begin - 1])) --begin;
      while (end < text.size() && !core::is_space(text[end])) ++end;
      text.replace(begin, end - begin, token);
    } else {
      text.insert(at, " " + token + " ");
    }
  }

  /// [begin, end) of a random line, its '\n' included when it has one.
  std::pair<std::size_t, std::size_t> some_line(const std::string& text) {
    const std::size_t at = pick(text.size());
    const std::size_t nl = text.rfind('\n', at == 0 ? 0 : at - 1);
    const std::size_t begin =
        at == 0 || nl == std::string::npos ? 0 : nl + 1;
    const std::size_t next = text.find('\n', at);
    const std::size_t end = next == std::string::npos ? text.size() : next + 1;
    return {begin, end};
  }

  void drop_line(std::string& text) {
    if (text.empty()) return;
    const auto [begin, end] = some_line(text);
    text.erase(begin, end - begin);
  }

  void duplicate_line(std::string& text) {
    if (text.empty()) return;
    const auto [begin, end] = some_line(text);
    text.insert(begin, text.substr(begin, end - begin));
  }

  core::Rng rng_;
};

/// Lines as the lexer counts them: a final line without '\n' counts.
int line_count(const std::string& text) {
  int lines = static_cast<int>(std::count(text.begin(), text.end(), '\n'));
  if (!text.empty() && text.back() != '\n') ++lines;
  return lines;
}

/// `error` is "line N: ..." with 1 <= N <= (lines of `input`) + 1.
::testing::AssertionResult numbered_within(const std::string& error,
                                           const std::string& input) {
  const std::size_t colon = error.find(": ");
  int line = 0;
  if (error.rfind("line ", 0) != 0 || colon == std::string::npos ||
      !core::parse_number(std::string_view(error).substr(5, colon - 5),
                          line)) {
    return ::testing::AssertionFailure()
           << "not a line-numbered diagnostic: '" << error << "'";
  }
  if (line < 1 || line > line_count(input) + 1) {
    return ::testing::AssertionFailure()
           << "line " << line << " outside an input of "
           << line_count(input) << " lines: '" << error << "'";
  }
  return ::testing::AssertionSuccess();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Runs `check` (true when its input parsed) on every seed and
/// kMutantsPerSeed mutants of each. Both outcomes must occur: a loop whose
/// mutants all parse, or all fail, explores one side only.
template <typename Check>
void fuzz(const std::vector<std::string>& seeds, std::uint64_t stream,
          Check check) {
  ASSERT_FALSE(seeds.empty());
  Mutator mutator(kFuzzSeed * 1000003ULL + stream);
  int accepted = 0;
  int rejected = 0;
  for (const std::string& seed : seeds) {
    (check(seed) ? accepted : rejected) += 1;
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      (check(mutator.mutate(seed)) ? accepted : rejected) += 1;
      if (::testing::Test::HasFailure()) return;  // one report is enough
    }
  }
  std::cout << "[ mutants  ] " << accepted << " parsed, " << rejected
            << " rejected\n";
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------------------------------
// Instance files.

std::string written(const core::ProblemInstance& inst) {
  std::ostringstream out;
  std::string why;
  EXPECT_TRUE(core::write_instance(out, inst, &why)) << why;
  return out.str();
}

void expect_instance_fixed_point(const core::ProblemInstance& inst) {
  const std::string once = written(inst);
  std::istringstream again(once);
  std::string error;
  const auto reparsed = core::parse_instance(again, &error);
  ASSERT_TRUE(reparsed.has_value()) << error << "\nwritten:\n" << once;
  EXPECT_EQ(written(*reparsed), once);
}

bool check_instance(const std::string& text) {
  std::istringstream in(text);
  std::string error;
  const auto parsed = core::parse_instance(in, &error);
  if (!parsed.has_value()) {
    EXPECT_TRUE(numbered_within(error, text)) << "input:\n" << text;
    return false;
  }
  expect_instance_fixed_point(*parsed);
  return true;
}

TEST(FuzzParsers, InstanceFilesOfTheDataCorpus) {
  engine::register_instance_codecs();
  std::vector<std::filesystem::path> files;
  for (const char* dir : {"", "/malformed"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(ABT_DATA_DIR) + dir)) {
      if (entry.path().extension() == ".txt") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> seeds;
  seeds.reserve(files.size());
  for (const auto& path : files) seeds.push_back(read_file(path));
  fuzz(seeds, 1, check_instance);
}

// ---------------------------------------------------------------------------
// Solve payloads and frames.

/// Requests shaped like the svc-mixed workload's (g = 4, seed 7), with the
/// optional directives switched on in turn.
std::vector<std::string> service_payloads() {
  struct Shape {
    const char* scenario;
    int n;
    std::vector<std::string> solvers;
    double budget_ms;
  };
  const std::vector<std::string> pair = {"busy/weighted-exact",
                                         "busy/weighted-narrow-wide"};
  const Shape shapes[] = {{"interval", 40, {}, 0.0},
                          {"flexible", 24, {}, 0.0},
                          {"weighted", 16, pair, 20.0},
                          {"weighted", 24, pair, 20.0}};
  std::vector<std::string> out;
  out.reserve(std::size(shapes));
  int variant = 0;
  for (const Shape& shape : shapes) {
    engine::ScenarioSpec spec;
    spec.name = shape.scenario;
    spec.n = shape.n;
    spec.g = 4;
    spec.seed = 7;
    service::SolveRequest request;
    request.instance = *engine::make_scenario(spec);
    request.solvers = shape.solvers;
    request.budget_ms = shape.budget_ms;
    if (variant++ % 2 == 1) {
      request.id = "req-" + std::to_string(variant);
      request.accept_gap = 0.02;
      request.progress = 4;
      request.format = "csv";
    }
    std::ostringstream payload;
    std::string error;
    EXPECT_TRUE(service::write_solve_payload(payload, request, &error))
        << error;
    out.push_back(payload.str());
  }
  return out;
}

void expect_payload_fixed_point(const service::SolveRequest& request) {
  std::string error;
  std::ostringstream once;
  ASSERT_TRUE(service::write_solve_payload(once, request, &error)) << error;
  service::SolveRequest back;
  ASSERT_TRUE(service::parse_solve_payload(once.str(), &back, &error))
      << error << "\nwritten:\n" << once.str();
  std::ostringstream twice;
  ASSERT_TRUE(service::write_solve_payload(twice, back, &error)) << error;
  EXPECT_EQ(twice.str(), once.str());
  EXPECT_EQ(service::cache_key(back), service::cache_key(request));
}

bool check_payload(const std::string& text) {
  service::SolveRequest request;
  std::string error;
  if (!service::parse_solve_payload(text, &request, &error)) {
    EXPECT_TRUE(numbered_within(error, text)) << "input:\n" << text;
    return false;
  }
  expect_payload_fixed_point(request);
  return true;
}

TEST(FuzzParsers, SolvePayloads) {
  engine::register_instance_codecs();
  fuzz(service_payloads(), 2, check_payload);
}

void expect_frame_fixed_point(const service::Frame& frame) {
  std::string error;
  std::ostringstream out;
  service::write_frame(out, frame);
  std::istringstream again(out.str());
  service::Frame back;
  ASSERT_TRUE(service::read_frame(again, &back, &error))
      << error << "\nwritten:\n" << out.str();
  EXPECT_EQ(back.type, frame.type);
  EXPECT_EQ(back.flags, frame.flags);
  EXPECT_EQ(back.payload, frame.payload);
}

bool check_frame(const std::string& wire) {
  std::istringstream in(wire);
  service::Frame frame;
  std::string error;
  if (!service::read_frame(in, &frame, &error)) {
    // Empty input is a clean end of stream; anything else is diagnosed.
    EXPECT_EQ(error.empty(), wire.empty()) << "input:\n" << wire;
    return false;
  }
  expect_frame_fixed_point(frame);
  return true;
}

TEST(FuzzParsers, FrameWires) {
  const std::vector<std::string> payloads = service_payloads();
  std::vector<std::string> wires;
  const auto wire_of = [&](service::FrameType type, std::string payload,
                           std::vector<std::pair<std::string, std::string>>
                               flags) {
    service::Frame frame;
    frame.type = type;
    frame.payload = std::move(payload);
    frame.flags = std::move(flags);
    std::ostringstream out;
    service::write_frame(out, frame);
    wires.push_back(out.str());
  };
  wire_of(service::FrameType::kSolve, payloads[1], {});
  wire_of(service::FrameType::kOk, "{\"cancelled\": true}\n",
          {{"exit", "0"}, {"cached", "1"}, {"budget-ms", "12.5"}});
  wire_of(service::FrameType::kCancel, "id req-7\n", {});
  wire_of(service::FrameType::kStats, "", {});
  fuzz(wires, 3, check_frame);
}

// ---------------------------------------------------------------------------
// Campaign grids.

/// The campaign file that parses back to `grid` (no writer ships with the
/// library: campaign files are written by hand).
std::string campaign_text(const engine::CampaignGrid& grid) {
  std::ostringstream out;
  out.precision(17);
  const auto line = [&](const std::string& directive, const auto& values) {
    if (values.empty()) return;
    out << directive;
    for (const auto& value : values) out << ' ' << value;
    out << '\n';
  };
  line("scenario", grid.scenarios);
  line("n", grid.ns);
  line("g", grid.gs);
  line("slack", grid.slacks);
  line("horizon", grid.horizons);
  line("solvers", grid.solvers);
  for (const auto& [scenario, subset] : grid.scenario_solvers) {
    line("solvers:" + scenario, subset);
  }
  if (grid.trials > 0) out << "trials " << grid.trials << '\n';
  out << "seed " << grid.base.seed << '\n';
  out << "eps " << grid.base.eps << '\n';
  return out.str();
}

void expect_campaign_fixed_point(const engine::CampaignGrid& grid) {
  const std::string once = campaign_text(grid);
  std::istringstream again(once);
  std::string error;
  const auto back = engine::parse_campaign(again, &error);
  ASSERT_TRUE(back.has_value()) << error << "\nwritten:\n" << once;
  EXPECT_EQ(campaign_text(*back), once);
}

bool check_campaign(const std::string& text) {
  std::istringstream in(text);
  std::string error;
  const auto grid = engine::parse_campaign(in, &error);
  if (!grid.has_value()) {
    // The two whole-file checks run after the last line and carry no
    // line number.
    const bool whole_file =
        error == "campaign names no scenario" ||
        (error.rfind("solvers:", 0) == 0 &&
         error.find(" names no scenario in the grid") != std::string::npos);
    if (!whole_file) {
      EXPECT_TRUE(numbered_within(error, text)) << "input:\n" << text;
    }
    return false;
  }
  expect_campaign_fixed_point(*grid);
  return true;
}

TEST(FuzzParsers, CampaignPresets) {
  std::vector<std::string> seeds;
  seeds.reserve(engine::campaign_presets().size() + 1);
  for (const engine::CampaignPresetInfo& info : engine::campaign_presets()) {
    const auto grid = engine::campaign_preset(info.name);
    ASSERT_TRUE(grid.has_value()) << info.name;
    seeds.push_back(campaign_text(*grid));
  }
  // Every directive at least once, comments included.
  seeds.push_back(
      "# hand-written grid\n"
      "scenario interval flexible\nn 8 12\ng 2 3\nslack 0.5 1.5\n"
      "horizon 12 18  # derived when 0\ntrials 2\nseed 7\neps 0.01\n"
      "solvers busy/first-fit busy/greedy-tracking\n"
      "solvers:flexible busy/greedy-tracking\n");
  fuzz(seeds, 5, check_campaign);
}

}  // namespace
}  // namespace abt
