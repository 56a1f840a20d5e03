#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return mix_seed(state_, 0);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

// ------------------------------------------------------------------ metrics

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Metrics::add_quantiles(const std::string& name,
                            const std::vector<double>& values,
                            const std::string& unit) {
  add(name + ".p50", percentile(values, 0.50), unit);
  add(name + ".p99", percentile(values, 0.99), unit);
}

void Metrics::print_result(bool correct, long long attempted,
                           long long failed) const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << entries_[i].name << "\": {\"value\": " << entries_[i].value
       << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  os << "}}\n";
  std::cout << os.str() << std::flush;
}

// ------------------------------------------------------------------- ledger

void Ledger::fail(const std::string& why) {
  ++failed_;
  if (reasons_.size() < 16) reasons_.push_back(why);
}

void Ledger::merge(const Ledger& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& why : other.reasons_) {
    if (reasons_.size() < 16) reasons_.push_back(why);
  }
}

void Ledger::report(std::size_t limit) const {
  for (std::size_t i = 0; i < reasons_.size() && i < limit; ++i) {
    std::cerr << "perfbench: failure: " << reasons_[i] << "\n";
  }
}

// ----------------------------------------------------------------- span log

namespace {

std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

}  // namespace

std::int32_t SpanLog::begin(std::uint64_t request, const char* layer,
                            std::int32_t parent, const char* detail) {
  Span span;
  span.request = request;
  span.layer = layer;
  span.detail = detail;
  span.parent = parent;
  span.start_ns = ns_since(origin_, Clock::now());
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

double SpanLog::end(std::int32_t span) {
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end_ns = ns_since(origin_, Clock::now());
  return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
}

void SpanLog::record(std::uint64_t request, const char* layer,
                     Clock::time_point start, Clock::time_point end,
                     std::int32_t parent, const char* detail) {
  Span span;
  span.request = request;
  span.layer = layer;
  span.detail = detail;
  span.parent = parent;
  span.start_ns = ns_since(origin_, start);
  span.end_ns = ns_since(origin_, end);
  spans_.push_back(span);
}

std::vector<double> SpanLog::per_span_us(std::string_view layer) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (layer == s.layer) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> SpanLog::per_request_us(std::string_view layer) const {
  std::unordered_map<std::uint64_t, double> sums;
  std::vector<std::uint64_t> order;
  for (const Span& s : spans_) {
    if (layer != s.layer) continue;
    auto [it, fresh] = sums.try_emplace(s.request, 0.0);
    if (fresh) order.push_back(s.request);
    it->second += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  std::vector<double> out;
  out.reserve(order.size());
  for (const std::uint64_t id : order) out.push_back(sums[id]);
  return out;
}

std::vector<double> SpanLog::per_request_us_all(std::string_view layer,
                                                std::uint64_t requests) const {
  std::vector<double> out(static_cast<std::size_t>(requests), 0.0);
  for (const Span& s : spans_) {
    if (layer == s.layer && s.request < requests) {
      out[static_cast<std::size_t>(s.request)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  return out;
}

std::map<std::string, std::vector<double>> SpanLog::per_detail_us(
    std::string_view layer) const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    if (layer == s.layer) {
      out[s.detail].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                              1e3);
    }
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(15);
  for (const Span& s : spans_) {
    out << "{\"request\": " << s.request << ", \"layer\": \"" << s.layer
        << "\", \"detail\": \"" << s.detail
        << "\", \"start_us\": " << static_cast<double>(s.start_ns) / 1e3
        << ", \"end_us\": " << static_cast<double>(s.end_ns) / 1e3
        << ", \"parent\": " << s.parent << "}\n";
  }
  return static_cast<bool>(out);
}

// --------------------------------------------------------------------- json

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(Json* out) {
    if (!value(out, 0)) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool string(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        c = text_[pos_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Escaped code points never carry checked content; keep a
            // placeholder.
            if (pos_ + 4 > text_.size()) return false;
            pos_ += 4;
            c = '?';
            break;
          default: break;  // '"', '\\', '/'
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;
    return true;
  }

  bool value(Json* out, int depth) {
    if (depth > 32) return false;
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        skip_ws();
        std::pair<std::string, Json> field;
        if (!string(&field.first)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != ':') return false;
        ++pos_;
        if (!value(&field.second, depth + 1)) return false;
        out->fields.push_back(std::move(field));
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Json item;
        if (!value(&item, depth + 1)) return false;
        out->items.push_back(std::move(item));
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return string(&out->text);
    }
    if (literal("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (literal("false")) {
      out->type = Json::Type::kBool;
      return true;
    }
    if (literal("null")) return true;
    // Numbers, including the inf/nan spellings iostreams produce.
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           text_[pos_] != ']' && text_[pos_] != ' ' && text_[pos_] != '\n') {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->type = Json::Type::kNumber;
    out->number = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Json* Json::find(std::string_view key) const {
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

double Json::num(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
}

bool Json::flag(std::string_view key) const {
  const Json* v = find(key);
  return v != nullptr && v->type == Type::kBool && v->boolean;
}

std::string Json::str(std::string_view key) const {
  const Json* v = find(key);
  return v != nullptr && v->type == Type::kString ? v->text : std::string();
}

std::optional<Json> parse_json(std::string_view text) {
  Json out;
  JsonParser parser(text);
  if (!parser.parse(&out)) return std::nullopt;
  return out;
}

double peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
