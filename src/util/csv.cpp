#include "util/csv.hpp"

#include <charconv>
#include <cmath>

namespace rdsim::util {

namespace {

bool needs_quoting(std::string_view v) {
  return v.find_first_of(",\"\n\r") != std::string_view::npos;
}

std::string quoted(std::string_view v) {
  std::string out;
  out.reserve(v.size() + 2);
  out.push_back('"');
  for (char c : v) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

void CsvWriter::write_cell(std::string_view v) {
  if (row_started_) *out_ << ',';
  if (needs_quoting(v)) {
    *out_ << quoted(v);
  } else {
    *out_ << v;
  }
  row_started_ = true;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) write_cell(c);
  end_row();
}

CsvWriter& CsvWriter::field(std::string_view v) {
  write_cell(v);
  return *this;
}

CsvWriter& CsvWriter::field(double v) {
  write_cell(format_number(v));
  return *this;
}

CsvWriter& CsvWriter::field(std::int64_t v) {
  write_cell(std::to_string(v));
  return *this;
}

void CsvWriter::end_row() {
  *out_ << '\n';
  row_started_ = false;
}

CsvTable CsvTable::parse(std::string_view text) {
  CsvTable table;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool first_row = true;
  bool row_has_data = false;

  auto flush_cell = [&] {
    row.push_back(std::move(cell));
    cell.clear();
  };
  auto flush_row = [&] {
    flush_cell();
    if (first_row) {
      table.header_ = std::move(row);
      first_row = false;
    } else {
      table.rows_.push_back(std::move(row));
    }
    row.clear();
    row_has_data = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell.push_back(c);
        row_has_data = true;
      }
    } else if (c == '"') {
      in_quotes = true;
      row_has_data = true;
    } else if (c == ',') {
      flush_cell();
      row_has_data = true;
    } else if (c == '\n') {
      if (row_has_data || !cell.empty() || !row.empty()) flush_row();
    } else if (c != '\r') {
      cell.push_back(c);
      row_has_data = true;
    }
  }
  if (row_has_data || !cell.empty() || !row.empty()) flush_row();
  return table;
}

int CsvTable::column(std::string_view name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::string format_number(double v) {
  if (std::isnan(v)) return std::signbit(v) ? "-nan" : "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  // The shortest string that parses back to exactly `v`. Whole numbers below
  // 1e15 keep their plain integer spelling instead of an exponent.
  char buf[32];
  const bool whole = std::fabs(v) < 1e15 && v == std::trunc(v);
  const std::to_chars_result res =
      whole ? std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed)
            : std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace rdsim::util
