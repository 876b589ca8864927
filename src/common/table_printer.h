// Fixed-width ASCII table rendering for benchmark harnesses and examples.
// Every figure/table reproduction binary prints its series through this so
// output is uniform and trivially diffable.

#ifndef DQSCHED_COMMON_TABLE_PRINTER_H_
#define DQSCHED_COMMON_TABLE_PRINTER_H_

#include <cstdio>
#include <string>
#include <vector>

namespace dqsched {

/// Collects rows of string cells and renders them with aligned columns.
///
/// Usage:
///   TablePrinter t({"w (us)", "SEQ (s)", "DSE (s)"});
///   t.AddRow({"20", "11.62", "7.9"});
///   t.Print(stdout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends a data row; must have the same arity as the header.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats a double with the given precision.
  static std::string Num(double v, int precision = 3);

  /// Renders the table (header, separator, rows) to `out`.
  void Print(std::FILE* out) const;

  /// Renders as comma-separated values (no alignment), for machine use.
  /// Cells are quoted per RFC 4180 (see CsvCell).
  void PrintCsv(std::FILE* out) const;

  /// A cell as a CSV field: one holding a comma, a double quote or a line
  /// break is wrapped in double quotes, its inner quotes doubled; any
  /// other cell is returned as is.
  static std::string CsvCell(const std::string& cell);

  size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dqsched

#endif  // DQSCHED_COMMON_TABLE_PRINTER_H_
