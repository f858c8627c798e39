#include "util/csv.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace abg::util {

namespace {

bool needs_quoting(const std::string& field, char sep) {
  return field.find(sep) != std::string::npos || field.find('"') != std::string::npos ||
         field.find('\n') != std::string::npos;
}

std::string quote(const std::string& field) {
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void CsvWriter::add_row(const std::vector<std::string>& fields) { rows_.push_back(fields); }

void append_number(std::string& out, double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 12);
  out.append(buf, r.ptr);
}

void CsvWriter::add_row_numeric(const std::vector<double>& values) {
  std::vector<std::string> fields;
  fields.reserve(values.size());
  for (double v : values) {
    fields.emplace_back();
    append_number(fields.back(), v);
  }
  add_row(fields);
}

std::string CsvWriter::str() const {
  std::string out;
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += sep_;
      out += needs_quoting(row[i], sep_) ? quote(row[i]) : row[i];
    }
    out += '\n';
  }
  return out;
}

bool CsvWriter::save(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << str();
  return static_cast<bool>(f);
}

std::vector<std::vector<std::string>> parse_csv(const std::string& content, char sep) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < content.size() && content[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == sep) {
      row.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      row.push_back(std::move(field));
      field.clear();
      rows.push_back(std::move(row));
      row.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  if (!field.empty() || !row.empty()) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

bool parse_double(const std::string& field, double* out) {
  if (field.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (end != field.c_str() + field.size()) return false;  // trailing garbage / empty
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) return false;
  *out = v;
  return true;
}

bool parse_u64(const std::string& field, std::uint64_t* out) {
  if (field.empty() || field[0] == '-' || field[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(field.c_str(), &end, 10);
  if (end != field.c_str() + field.size()) return false;
  if (errno == ERANGE) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

std::string read_file(const std::string& path) {
  std::string out;
  return read_file(path, &out) ? out : std::string{};
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  if (f.bad()) return false;
  *out = ss.str();
  return true;
}

}  // namespace abg::util
