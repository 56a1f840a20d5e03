#include "engine/selector.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <string_view>

#include "core/lines.hpp"
#include "engine/runner.hpp"

namespace abt::engine {

namespace {

constexpr std::string_view kMagic = "selector-model";
constexpr std::string_view kVersion = "v1";

/// One CSV record, honoring double-quoted fields with "" escapes (the
/// report::Table writer quotes any field containing a comma or quote).
std::vector<std::string> split_csv_row(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

}  // namespace

std::vector<std::string> select_solvers(const SelectorModel& model,
                                        const FeatureVector& features,
                                        int top_k) {
  if (model.centroids.empty()) return {};
  std::array<double, kFeatureCount> query{};
  for (std::size_t i = 0; i < kFeatureCount; ++i) {
    const double sigma = model.sigma[i] > 0.0 ? model.sigma[i] : 1.0;
    query[i] = (features.values[i] - model.mu[i]) / sigma;
  }
  std::size_t best = 0;
  double best_distance = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < model.centroids.size(); ++c) {
    double distance = 0.0;
    for (std::size_t i = 0; i < kFeatureCount; ++i) {
      const double d = query[i] - model.centroids[c].center[i];
      distance += d * d;
    }
    if (distance < best_distance) {
      best_distance = distance;
      best = c;
    }
  }
  std::vector<std::string> ranking = model.centroids[best].ranking;
  if (top_k > 0 && static_cast<std::size_t>(top_k) < ranking.size()) {
    ranking.resize(static_cast<std::size_t>(top_k));
  }
  return ranking;
}

void write_model(std::ostream& os, const SelectorModel& model) {
  const std::streamsize old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << kMagic << " v" << model.version << "\n";
  os << "features " << kFeatureCount;
  for (const std::string& name : feature_names()) os << " " << name;
  os << "\n";
  os << "mu";
  for (const double v : model.mu) os << " " << v;
  os << "\n";
  os << "sigma";
  for (const double v : model.sigma) os << " " << v;
  os << "\n";
  for (const SelectorCentroid& centroid : model.centroids) {
    os << "centroid " << centroid.label << "\n";
    os << "center";
    for (const double v : centroid.center) os << " " << v;
    os << "\n";
    os << "rank";
    for (const std::string& name : centroid.ranking) os << " " << name;
    os << "\n";
  }
  os.precision(old_precision);
}

std::optional<SelectorModel> parse_model(std::istream& in,
                                         std::string* error) {
  const std::string text = core::read_all(in);
  core::LineCursor lines(text);
  const auto fail = [&](const std::string& why) {
    lines.fail(error, why);
    return std::nullopt;
  };

  SelectorModel model;
  bool saw_header = false;
  bool saw_features = false, saw_mu = false, saw_sigma = false;
  // The open centroid block, if any, and which of its lines arrived.
  bool in_centroid = false, saw_center = false, saw_rank = false;

  const auto block_complete = [&]() { return saw_center && saw_rank; };
  const auto parse_row = [&](const std::vector<std::string>& tokens,
                             std::array<double, kFeatureCount>& out,
                             std::string* why) {
    if (tokens.size() != kFeatureCount + 1) {
      *why = tokens[0] + " needs exactly " + std::to_string(kFeatureCount) +
             " values, got " + std::to_string(tokens.size() - 1);
      return false;
    }
    for (std::size_t i = 0; i < kFeatureCount; ++i) {
      if (!core::parse_number(tokens[i + 1], out[i])) {
        *why = "bad number '" + tokens[i + 1] + "' in " + tokens[0];
        return false;
      }
    }
    return true;
  };

  core::Tokens line;
  std::vector<std::string> tokens;
  while (lines.next(line)) {
    tokens.clear();
    for (std::string_view token; line.next(token);) tokens.emplace_back(token);

    if (!saw_header) {
      if (tokens.size() != 2 || tokens[0] != kMagic) {
        return fail("expected header '" + std::string(kMagic) + " " +
                    std::string(kVersion) + "'");
      }
      if (tokens[1] != kVersion) {
        return fail("unsupported model version '" + tokens[1] + "' (this "
                    "build reads " + std::string(kVersion) + ")");
      }
      model.version = 1;
      saw_header = true;
      continue;
    }

    const std::string& directive = tokens[0];
    std::string why;
    if (directive == "features") {
      if (saw_features) return fail("duplicate features line");
      saw_features = true;
      int count = 0;
      if (tokens.size() < 2) return fail("features needs a count");
      if (!core::parse_number(tokens[1], count)) {
        return fail("bad feature count '" + tokens[1] + "'");
      }
      if (count != static_cast<int>(kFeatureCount) ||
          tokens.size() != kFeatureCount + 2) {
        return fail("feature count mismatch: model has " +
                    std::to_string(tokens.size() - 2) + " names (declares " +
                    std::to_string(count) + "), extractor has " +
                    std::to_string(kFeatureCount));
      }
      for (std::size_t i = 0; i < kFeatureCount; ++i) {
        if (tokens[i + 2] != feature_names()[i]) {
          return fail("feature name mismatch at position " +
                      std::to_string(i) + ": model says '" + tokens[i + 2] +
                      "', extractor says '" + feature_names()[i] + "'");
        }
      }
    } else if (directive == "mu") {
      if (saw_mu) return fail("duplicate mu line");
      if (!parse_row(tokens, model.mu, &why)) return fail(why);
      saw_mu = true;
    } else if (directive == "sigma") {
      if (saw_sigma) return fail("duplicate sigma line");
      if (!parse_row(tokens, model.sigma, &why)) return fail(why);
      for (const double v : model.sigma) {
        if (!(v > 0.0)) return fail("sigma values must be > 0");
      }
      saw_sigma = true;
    } else if (directive == "centroid") {
      if (in_centroid && !block_complete()) {
        return fail("previous centroid block is missing its " +
                    std::string(saw_center ? "rank" : "center") + " line");
      }
      if (tokens.size() != 2) return fail("centroid needs exactly one label");
      for (const SelectorCentroid& existing : model.centroids) {
        if (existing.label == tokens[1]) {
          return fail("duplicate centroid label '" + tokens[1] + "'");
        }
      }
      model.centroids.push_back({tokens[1], {}, {}});
      in_centroid = true;
      saw_center = saw_rank = false;
    } else if (directive == "center") {
      if (!in_centroid) return fail("center outside a centroid block");
      if (saw_center) return fail("duplicate center line in centroid block");
      if (!parse_row(tokens, model.centroids.back().center, &why)) {
        return fail(why);
      }
      saw_center = true;
    } else if (directive == "rank") {
      if (!in_centroid) return fail("rank outside a centroid block");
      if (saw_rank) return fail("duplicate rank line in centroid block");
      if (tokens.size() < 2) return fail("rank needs at least one solver");
      auto& ranking = model.centroids.back().ranking;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (std::find(ranking.begin(), ranking.end(), tokens[i]) !=
            ranking.end()) {
          return fail("duplicate solver '" + tokens[i] + "' in rank");
        }
        ranking.push_back(tokens[i]);
      }
      saw_rank = true;
    } else {
      return fail("unknown directive '" + directive + "'");
    }
  }

  // EOF diagnostics point one past the last line, where the cursor is.
  if (!saw_header) return fail("empty input, expected selector-model header");
  if (!saw_features) return fail("missing features line");
  if (!saw_mu) return fail("missing mu line");
  if (!saw_sigma) return fail("missing sigma line");
  if (model.centroids.empty()) return fail("model has no centroid");
  if (in_centroid && !block_complete()) {
    return fail("last centroid block is missing its " +
                std::string(saw_center ? "rank" : "center") + " line");
  }
  return model;
}

// ---------------------------------------------------------------------------
// Offline training from campaign CSV.

namespace {

struct SolverRecord {
  std::string solver;
  double feasible_rate = 0.0;
  double ratio_median = std::numeric_limits<double>::infinity();
  double wall_median = std::numeric_limits<double>::infinity();
  bool produced = false;  ///< ok > 0 — refusal-only rows never get raced.
};

struct TrainPoint {
  ScenarioSpec spec;
  FeatureVector features;
  std::vector<SolverRecord> records;

  /// Solver names of this point, best first (the per-point ranking).
  [[nodiscard]] std::vector<std::string> ranking() const {
    std::vector<const SolverRecord*> rows;
    for (const SolverRecord& r : records) {
      if (r.produced) rows.push_back(&r);
    }
    std::sort(rows.begin(), rows.end(),
              [](const SolverRecord* a, const SolverRecord* b) {
                if (a->feasible_rate != b->feasible_rate) {
                  return a->feasible_rate > b->feasible_rate;
                }
                if (a->ratio_median != b->ratio_median) {
                  return a->ratio_median < b->ratio_median;
                }
                if (a->wall_median != b->wall_median) {
                  return a->wall_median < b->wall_median;
                }
                return a->solver < b->solver;
              });
    std::vector<std::string> out;
    out.reserve(rows.size());
    for (const SolverRecord* r : rows) out.push_back(r->solver);
    return out;
  }
};

}  // namespace

std::optional<SelectorModel> train_selector(std::istream& csv,
                                            std::string* error) {
  int line_no = 0;
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = core::line_error(line_no, why);
    return std::nullopt;
  };

  std::string line;
  if (!std::getline(csv, line)) {
    ++line_no;
    return fail("empty input, expected campaign CSV header");
  }
  ++line_no;
  const std::vector<std::string> header = split_csv_row(line);
  const auto column = [&](std::string_view name) {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  const int col_scenario = column("scenario"), col_n = column("n"),
            col_g = column("g"), col_seed = column("seed"),
            col_solver = column("solver"), col_runs = column("runs"),
            col_ok = column("ok"), col_feasible = column("feasible"),
            col_ratio = column("ratio_median"),
            col_wall = column("wall_median_ms");
  // Optional axes (campaign CSVs grew them in PR 10): when present they
  // separate points and feed the regenerated feature vectors; absent
  // columns fall back to the spec defaults, so older CSVs keep training.
  const int col_slack = column("slack"), col_horizon = column("horizon");
  for (const auto& [col, name] :
       {std::pair{col_scenario, "scenario"}, {col_n, "n"}, {col_g, "g"},
        {col_seed, "seed"}, {col_solver, "solver"}, {col_runs, "runs"},
        {col_ok, "ok"}, {col_feasible, "feasible"},
        {col_ratio, "ratio_median"}, {col_wall, "wall_median_ms"}}) {
    if (col < 0) {
      return fail("campaign CSV header is missing column '" +
                  std::string(name) + "'");
    }
  }

  std::vector<TrainPoint> points;
  std::map<std::string, std::size_t> point_index;
  while (std::getline(csv, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_csv_row(line);
    if (fields.size() != header.size()) {
      return fail("row has " + std::to_string(fields.size()) +
                  " fields, header has " + std::to_string(header.size()));
    }
    const auto field = [&](int col) -> const std::string& {
      return fields[static_cast<std::size_t>(col)];
    };
    ScenarioSpec spec;
    spec.name = field(col_scenario);
    double n = 0.0, g = 0.0, seed = 0.0, runs = 0.0, ok = 0.0, feas = 0.0;
    if (!core::parse_number(field(col_n), n) ||
        !core::parse_number(field(col_g), g) ||
        !core::parse_number(field(col_seed), seed) ||
        !core::parse_number(field(col_runs), runs) ||
        !core::parse_number(field(col_ok), ok) ||
        !core::parse_number(field(col_feasible), feas)) {
      return fail("bad numeric field in row for solver '" +
                  field(col_solver) + "'");
    }
    if (runs <= 0.0) return fail("runs must be positive");
    spec.n = static_cast<int>(n);
    spec.g = static_cast<int>(g);
    spec.seed = static_cast<std::uint64_t>(seed);

    std::string key = spec.name + "|" + field(col_n) + "|" + field(col_g) +
                      "|" + field(col_seed);
    double axis = 0.0;
    if (col_slack >= 0 && core::parse_number(field(col_slack), axis)) {
      spec.slack = axis;
      key += "|" + field(col_slack);
    }
    if (col_horizon >= 0 && core::parse_number(field(col_horizon), axis)) {
      spec.horizon = axis;
      key += "|" + field(col_horizon);
    }
    auto [it, inserted] = point_index.emplace(key, points.size());
    if (inserted) {
      TrainPoint point;
      point.spec = spec;
      std::string why;
      const auto inst = make_scenario(spec, &why);
      if (!inst.has_value()) {
        return fail("cannot regenerate point for features: " + why);
      }
      point.features = extract_features(*inst);
      points.push_back(std::move(point));
    }
    SolverRecord record;
    record.solver = field(col_solver);
    record.feasible_rate = feas / runs;
    record.produced = ok > 0.0;
    double value = 0.0;
    if (core::parse_number(field(col_ratio), value)) {
      record.ratio_median = value;
    }
    if (core::parse_number(field(col_wall), value)) {
      record.wall_median = value;
    }
    points[it->second].records.push_back(std::move(record));
  }
  if (points.empty()) {
    return fail("campaign CSV has a header but no rows");
  }

  SelectorModel model;
  const double count = static_cast<double>(points.size());
  for (std::size_t i = 0; i < kFeatureCount; ++i) {
    double sum = 0.0, sq = 0.0;
    for (const TrainPoint& point : points) {
      sum += point.features[i];
      sq += point.features[i] * point.features[i];
    }
    model.mu[i] = sum / count;
    const double variance =
        std::max(0.0, sq / count - model.mu[i] * model.mu[i]);
    const double sigma = std::sqrt(variance);
    model.sigma[i] = sigma > 1e-12 ? sigma : 1.0;
  }

  // One centroid per scenario label, in first-seen order: mean normalized
  // features of its points, rankings merged by mean per-point rank (Borda).
  std::vector<std::string> labels;
  for (const TrainPoint& point : points) {
    if (std::find(labels.begin(), labels.end(), point.spec.name) ==
        labels.end()) {
      labels.push_back(point.spec.name);
    }
  }
  for (const std::string& label : labels) {
    SelectorCentroid centroid;
    centroid.label = label;
    double members = 0.0;
    std::map<std::string, std::pair<double, double>> rank_sum;  // sum, count
    for (const TrainPoint& point : points) {
      if (point.spec.name != label) continue;
      members += 1.0;
      for (std::size_t i = 0; i < kFeatureCount; ++i) {
        centroid.center[i] +=
            (point.features[i] - model.mu[i]) / model.sigma[i];
      }
      const std::vector<std::string> ranking = point.ranking();
      for (std::size_t r = 0; r < ranking.size(); ++r) {
        auto& [sum, cnt] = rank_sum[ranking[r]];
        sum += static_cast<double>(r);
        cnt += 1.0;
      }
    }
    for (double& v : centroid.center) v /= members;
    std::vector<std::pair<double, std::string>> merged;
    merged.reserve(rank_sum.size());
    for (const auto& [solver, sums] : rank_sum) {
      merged.emplace_back(sums.first / sums.second, solver);
    }
    std::sort(merged.begin(), merged.end());
    for (auto& [rank, solver] : merged) {
      centroid.ranking.push_back(std::move(solver));
    }
    if (!centroid.ranking.empty()) {
      model.centroids.push_back(std::move(centroid));
    }
  }
  if (model.centroids.empty()) {
    return fail("no scenario produced a usable solver ranking");
  }
  return model;
}

}  // namespace abt::engine
