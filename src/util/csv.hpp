// CSV / aligned-table emission for the benchmark harness.
//
// Every figure bench prints its series both as machine-readable CSV (for
// re-plotting) and as an aligned console table (for eyeballing the shape
// against the paper).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace stellaris {

/// A simple rectangular table: named columns, row-at-a-time appends.
/// Cells are stored as strings; numeric helpers format with fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Begin a new row; subsequent add() calls fill cells left-to-right.
  Table& row();
  Table& add(const std::string& cell);
  Table& add(double value, int precision = 4);
  Table& add(std::size_t value);
  Table& add(long long value);

  /// Write RFC-4180-ish CSV (quotes cells containing commas/quotes).
  void write_csv(std::ostream& os) const;

  /// Write an aligned human-readable table.
  void write_pretty(std::ostream& os) const;

  /// Convenience: write_pretty to stdout, then CSV to `path` if non-empty.
  void emit(const std::string& title, const std::string& csv_path = "") const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace stellaris
