#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/assert.hpp"

namespace sent::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  SENT_REQUIRE(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  SENT_REQUIRE_MSG(cells.size() == headers_.size(),
                   "row has " << cells.size() << " cells, expected "
                              << headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      if (c + 1 < row.size()) os << "  ";
    }
    os << '\n';
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(widths[c], '-');
    if (c + 1 < headers_.size()) os << "  ";
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << csv_escape(row[c]);
      if (c + 1 < row.size()) os << ',';
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string cell(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string cell(int v) { return std::to_string(v); }
std::string cell(std::size_t v) { return std::to_string(v); }

std::string csv_escape(const std::string& s) {
  bool needs_quotes =
      s.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace sent::util
