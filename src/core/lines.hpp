#pragma once

// The one lexer of the repo's line formats: instance files, abtd payloads,
// frame headers and cancel payloads, campaign files. A line is a keyword
// and whitespace-separated tokens (space, \t, \r, \v, \f); '#' starts a
// comment that runs to the end of its line. Numbers follow parse_number
// everywhere, and diagnostics read "line N: <what>".

#include <charconv>
#include <cmath>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>

namespace abt::core {

[[nodiscard]] constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
         c == '\f';
}

/// Strict full-token number: an optional sign, then a decimal number
/// (digits for integers; an optional fraction and exponent for reals)
/// filling the whole token. Integers must be in range for T (unsigned
/// types take no '-'); reals must be finite, so nan, inf, hex and values
/// beyond the double range fail. `out` is written only on success.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view token, T& out) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  const std::size_t lead =
      !token.empty() && (token[0] == '+' || token[0] == '-') ? 1 : 0;
  if (lead == token.size() ||
      !((token[lead] >= '0' && token[lead] <= '9') || token[lead] == '.')) {
    return false;
  }
  const char* last = token.data() + token.size();
  T value{};
  const auto [ptr, ec] =
      std::from_chars(token.data() + (token[0] == '+' ? 1 : 0), last, value);
  if (ec != std::errc() || ptr != last) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

/// The tokens of one line, front to back.
class Tokens {
 public:
  Tokens() = default;
  explicit Tokens(std::string_view text) : rest_(text) {}

  /// The next token; false when the line is exhausted.
  bool next(std::string_view& token);
  /// The next token as a parse_number; false when missing or malformed.
  template <typename T>
  bool number(T& out) {
    std::string_view token;
    return next(token) && parse_number(token, out);
  }
  /// True when no token is left.
  [[nodiscard]] bool done();

 private:
  std::string_view rest_;
};

/// "line N: what".
[[nodiscard]] std::string line_error(int line, std::string_view what);

/// Walks a text line by line ('\n' ends a line; a last line without one
/// counts), carrying the 1-based line number.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : text_(text) {}

  /// Moves to the next line holding a token and points `tokens` at it. At
  /// the end returns false, with line() one past the last line: where
  /// end-of-input diagnostics point.
  bool next(Tokens& tokens);
  [[nodiscard]] int line() const { return line_; }
  /// Stores line_error(line(), what) in `*error` (if non-null); false.
  bool fail(std::string* error, std::string_view what) const;

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 0;
  bool at_end_ = false;
};

/// The rest of `in`, for the parsers' std::istream entry points.
[[nodiscard]] std::string read_all(std::istream& in);

}  // namespace abt::core
