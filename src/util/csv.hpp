// CSV writing/reading for the trace logger (§V.F of the paper logs all
// channels to per-run CSV files; our traces use the same schema).
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace rdsim::util {

/// Streaming CSV writer with RFC-4180 quoting. Does not own the stream.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_{&out} {}

  /// One whole row; a header is the first row.
  void write_row(const std::vector<std::string>& cells);

  /// Fluent per-cell interface: field(...) ... end_row().
  CsvWriter& field(std::string_view v);
  CsvWriter& field(double v);
  CsvWriter& field(std::int64_t v);
  void end_row();

 private:
  void write_cell(std::string_view v);

  std::ostream* out_;
  bool row_started_{false};
};

/// Fully-parsed CSV document. Small-file oriented (traces are a few MB).
class CsvTable {
 public:
  /// Parse CSV text; first row is the header.
  static CsvTable parse(std::string_view text);

  const std::vector<std::string>& header() const { return header_; }
  std::size_t row_count() const { return rows_.size(); }
  const std::vector<std::string>& row(std::size_t i) const { return rows_.at(i); }

  /// Column index by name; -1 if missing.
  int column(std::string_view name) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// `text` as a T (double or an integer type) when the whole of it is one
/// number in T's range, else nullopt. Doubles also read "nan", "inf" and
/// "-inf", which format_number writes.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T out{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

/// Format a double as the shortest string that parse_number<double> reads
/// back to the same value: whole numbers below 1e15 as plain integers, "nan",
/// "inf" and "-inf" as such, so a CSV round trip is exact.
std::string format_number(double v);

}  // namespace rdsim::util
