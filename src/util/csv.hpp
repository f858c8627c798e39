// Tiny CSV reader/writer used for trace persistence and benchmark output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace abg::util {

// Writes rows of string fields, quoting fields that contain separators.
class CsvWriter {
 public:
  explicit CsvWriter(char sep = ',') : sep_(sep) {}

  void add_row(const std::vector<std::string>& fields);
  // Convenience: formats doubles as append_number does.
  void add_row_numeric(const std::vector<double>& values);

  // Serialized CSV body.
  std::string str() const;
  // Write to a file; returns false on I/O failure.
  bool save(const std::string& path) const;

 private:
  char sep_;
  std::vector<std::vector<std::string>> rows_;
};

// Appends `v` exactly as printf's "%.12g" formats it, through std::to_chars,
// which is several times faster than snprintf. A trace's ~180k numbers are
// written this way.
void append_number(std::string& out, double v);

// Parses CSV content into rows of fields. Handles quoted fields with embedded
// separators and doubled quotes. Newlines inside quotes are not supported
// (traces never need them).
std::vector<std::vector<std::string>> parse_csv(const std::string& content, char sep = ',');

// Checked numeric parsing: the whole field must be consumed (no trailing
// garbage) and must be non-empty. Unlike std::atof, "banana" and "" are
// rejected instead of silently producing 0. "nan"/"inf" parse successfully —
// rejecting non-finite values is a *validation* decision (trace/validate),
// not a lexical one.
bool parse_double(const std::string& field, double* out);
bool parse_u64(const std::string& field, std::uint64_t* out);

// Reads an entire file; returns empty string on failure.
std::string read_file(const std::string& path);

// Checked variant: distinguishes an unreadable file (false) from an empty
// one (true with *out empty).
bool read_file(const std::string& path, std::string* out);

}  // namespace abg::util
