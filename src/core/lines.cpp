#include "core/lines.hpp"

#include <istream>
#include <iterator>

namespace abt::core {

bool Tokens::next(std::string_view& token) {
  if (done()) return false;
  std::size_t end = 0;
  while (end < rest_.size() && !is_space(rest_[end])) ++end;
  token = rest_.substr(0, end);
  rest_.remove_prefix(end);
  return true;
}

bool Tokens::done() {
  while (!rest_.empty() && is_space(rest_.front())) rest_.remove_prefix(1);
  return rest_.empty();
}

std::string line_error(int line, std::string_view what) {
  return "line " + std::to_string(line) + ": " + std::string(what);
}

bool LineCursor::next(Tokens& tokens) {
  while (pos_ < text_.size()) {
    std::size_t end = text_.find('\n', pos_);
    if (end == std::string_view::npos) end = text_.size();
    const std::string_view line = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    ++line_;
    tokens = Tokens(line.substr(0, line.find('#')));
    if (!tokens.done()) return true;
  }
  if (!at_end_) ++line_;
  at_end_ = true;
  return false;
}

bool LineCursor::fail(std::string* error, std::string_view what) const {
  if (error != nullptr) *error = line_error(line_, what);
  return false;
}

std::string read_all(std::istream& in) {
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace abt::core
