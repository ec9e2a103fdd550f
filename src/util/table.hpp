// Aligned-column text tables and CSV output.
//
// Bench binaries print the paper's ranking tables (Figure 5) with this
// helper, and optionally dump the same rows as CSV for downstream plotting.
#pragma once

#include <string>
#include <vector>

namespace sent::util {

/// A simple text table. Columns are declared once; rows are appended as
/// strings (use `cell` helpers for numeric formatting).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row. Must have exactly as many cells as headers.
  void add_row(std::vector<std::string> cells);

  std::size_t row_count() const { return rows_.size(); }

  /// Render with column alignment and a header underline.
  std::string render() const;

  /// Render as RFC-4180-ish CSV (quotes fields containing , " or newline).
  std::string to_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision.
std::string cell(double v, int precision = 4);

/// Format an integer.
std::string cell(int v);
std::string cell(std::size_t v);

/// Escape a single CSV field.
std::string csv_escape(const std::string& s);

}  // namespace sent::util
