#pragma once

// Shared plumbing of the perfbench binary: clocks and order statistics,
// the metric sink that prints the single result line, the in-memory span
// log of traced runs, a small JSON reader for daemon responses, and
// /proc helpers.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// 64-bit splitmix step: derives independent stream seeds from (seed, i).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i);

/// Seeded generator with a library-independent uniform draw, so the same
/// seed yields the same inputs under any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  [[nodiscard]] std::uint64_t next();
  /// Uniform in [0, 1).
  [[nodiscard]] double uniform();
  /// Exponential with the given rate (events per unit).
  [[nodiscard]] double exponential(double rate);

 private:
  std::uint64_t state_;
};

/// Named metrics in insertion order, printed as the result line.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// p50 and p99 of `values` as `<name>.p50` / `<name>.p99`.
  void add_quantiles(const std::string& name, const std::vector<double>& values,
                     const std::string& unit);

  /// The last line of standard output: {"correct", "attempted", "failed",
  /// "metrics"}.
  void print_result(bool correct, long long attempted,
                    long long failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Counts operations and failures; the first few failure reasons are kept
/// for the report.
class Ledger {
 public:
  void attempt() { ++attempted_; }
  /// Marks one already-attempted operation as failed.
  void fail(const std::string& why);
  void merge(const Ledger& other);
  [[nodiscard]] long long attempted() const { return attempted_; }
  [[nodiscard]] long long failed() const { return failed_; }
  /// Writes up to `limit` failure reasons to stderr.
  void report(std::size_t limit = 5) const;

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> reasons_;
};

/// In-memory span log of a traced run. Spans carry the request (or cell)
/// id, the layer, start and end, and the index of the causing span; they
/// are written out once, when the run ends.
class SpanLog {
 public:
  struct Span {
    std::uint64_t request = 0;
    const char* layer = "";
    const char* detail = "";  ///< e.g. the solver name of a core.solve span.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span now; close it with end().
  std::int32_t begin(std::uint64_t request, const char* layer,
                     std::int32_t parent = -1, const char* detail = "");
  /// Closes `span` now and returns its duration in microseconds.
  double end(std::int32_t span);
  /// Records an already-measured span.
  void record(std::uint64_t request, const char* layer, Clock::time_point start,
              Clock::time_point end, std::int32_t parent = -1,
              const char* detail = "");

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Microseconds of every span of `layer`, one value per span.
  [[nodiscard]] std::vector<double> per_span_us(std::string_view layer) const;
  /// Microseconds of `layer` summed per request, for the requests that
  /// ran the layer at all.
  [[nodiscard]] std::vector<double> per_request_us(
      std::string_view layer) const;
  /// Per-request sums over `requests` ids [0, requests): requests that
  /// never entered the layer count as 0.
  [[nodiscard]] std::vector<double> per_request_us_all(
      std::string_view layer, std::uint64_t requests) const;
  /// Per-solver (detail) span durations of `layer`.
  [[nodiscard]] std::map<std::string, std::vector<double>> per_detail_us(
      std::string_view layer) const;

  /// One JSON object per line: request, layer, detail, start_us, end_us,
  /// parent. False when the file cannot be written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// A parsed JSON value (the subset the daemon emits).
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  /// Field lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] double num(std::string_view key, double fallback = 0.0) const;
  [[nodiscard]] bool flag(std::string_view key) const;
  [[nodiscard]] std::string str(std::string_view key) const;
};

/// Parses one JSON document; nullopt on malformed text.
[[nodiscard]] std::optional<Json> parse_json(std::string_view text);

/// `VmHWM` (peak resident set) of a process in MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(int pid);
/// Resets this process's `VmHWM` to its current resident set; false when
/// the kernel refuses.
bool reset_peak_rss();

}  // namespace perfbench
