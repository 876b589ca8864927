#include "common/table_printer.h"

#include <algorithm>

#include "common/macros.h"

namespace dqsched {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  DQS_CHECK_MSG(cells.size() == header_.size(),
                "row arity %zu != header arity %zu", cells.size(),
                header_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void TablePrinter::Print(std::FILE* out) const {
  std::vector<size_t> width(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::fprintf(out, "%s%-*s", c == 0 ? "| " : " | ",
                   static_cast<int>(width[c]), row[c].c_str());
    }
    std::fprintf(out, " |\n");
  };
  print_row(header_);
  for (size_t c = 0; c < header_.size(); ++c) {
    std::fprintf(out, "%s%s", c == 0 ? "|-" : "-|-",
                 std::string(width[c], '-').c_str());
  }
  std::fprintf(out, "-|\n");
  for (const auto& row : rows_) print_row(row);
}

std::string TablePrinter::CsvCell(const std::string& cell) {
  if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  return quoted + '"';
}

void TablePrinter::PrintCsv(std::FILE* out) const {
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::fprintf(out, "%s%s", c == 0 ? "" : ",", CsvCell(row[c]).c_str());
    }
    std::fprintf(out, "\n");
  };
  print_row(header_);
  for (const auto& row : rows_) print_row(row);
}

}  // namespace dqsched
