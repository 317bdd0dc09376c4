#include "relational/csv.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/status.h"
#include "common/string_util.h"

namespace amalur {
namespace rel {

namespace {

/// What a single text field could parse as.
enum class FieldKind { kEmpty, kInt64, kDouble, kString };

FieldKind ClassifyField(std::string_view field) {
  if (field.empty()) return FieldKind::kEmpty;
  int64_t int_value;
  auto [int_end, int_err] =
      std::from_chars(field.data(), field.data() + field.size(), int_value);
  if (int_err == std::errc() && int_end == field.data() + field.size()) {
    return FieldKind::kInt64;
  }
  // std::from_chars<double> is not universally available on older stdlibs;
  // strtod via a bounded copy is portable and exact enough here.
  std::string buffer(field);
  char* end = nullptr;
  errno = 0;
  (void)std::strtod(buffer.c_str(), &end);
  if (errno == 0 && end == buffer.c_str() + buffer.size()) {
    return FieldKind::kDouble;
  }
  return FieldKind::kString;
}

Value ParseField(std::string_view field, DataType type) {
  if (field.empty()) return Value::Null();
  switch (type) {
    case DataType::kInt64: {
      int64_t v = 0;
      std::from_chars(field.data(), field.data() + field.size(), v);
      return Value(v);
    }
    case DataType::kDouble: {
      std::string buffer(field);
      return Value(std::strtod(buffer.c_str(), nullptr));
    }
    case DataType::kString:
      return Value(std::string(field));
  }
  return Value::Null();
}

}  // namespace

Result<Table> ReadCsv(std::istream& input, const std::string& table_name,
                      const CsvOptions& options) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(input, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(line);
  }
  // A trailing blank line is a file artifact, not an empty record.
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) return Status::InvalidArgument("empty CSV input");

  std::vector<std::string> header;
  size_t first_data_row = 0;
  if (options.has_header) {
    header = Split(lines[0], options.delimiter);
    first_data_row = 1;
  } else {
    const size_t width = Split(lines[0], options.delimiter).size();
    for (size_t i = 0; i < width; ++i) header.push_back("c" + std::to_string(i));
  }
  const size_t width = header.size();

  // Pass 1: tokenize and infer column types (int64 -> double -> string).
  std::vector<std::vector<std::string>> rows;
  rows.reserve(lines.size() - first_data_row);
  std::vector<FieldKind> column_kind(width, FieldKind::kEmpty);
  for (size_t i = first_data_row; i < lines.size(); ++i) {
    std::vector<std::string> fields = Split(lines[i], options.delimiter);
    if (fields.size() != width) {
      return Status::InvalidArgument("row ", i + 1, " has ", fields.size(),
                                     " fields, expected ", width);
    }
    for (size_t j = 0; j < width; ++j) {
      const FieldKind kind = ClassifyField(std::string_view(Trim(fields[j])));
      if (static_cast<int>(kind) > static_cast<int>(column_kind[j])) {
        column_kind[j] = kind;
      }
      fields[j] = std::string(Trim(fields[j]));
    }
    rows.push_back(std::move(fields));
  }

  Table table(table_name);
  std::vector<DataType> types(width);
  for (size_t j = 0; j < width; ++j) {
    switch (column_kind[j]) {
      case FieldKind::kInt64:
        types[j] = DataType::kInt64;
        break;
      case FieldKind::kEmpty:  // all-null column defaults to double
      case FieldKind::kDouble:
        types[j] = DataType::kDouble;
        break;
      case FieldKind::kString:
        types[j] = DataType::kString;
        break;
    }
    AMALUR_RETURN_NOT_OK(
        table.AddColumn(Column(std::string(Trim(header[j])), types[j])));
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    std::vector<Value> row(width);
    for (size_t j = 0; j < width; ++j) {
      row[j] = ParseField(rows[r][j], types[j]);
      // strtod accepts "nan"/"inf"; a silo value no model can train on is
      // the input's error, reported where it sits.
      if (types[j] == DataType::kDouble && !row[j].is_null() &&
          !std::isfinite(row[j].AsDouble())) {
        return Status::InvalidArgument(
            "row ", first_data_row + r + 1, ", column '",
            table.column(j).name(), "': non-finite number '", rows[r][j],
            "'");
      }
    }
    AMALUR_RETURN_NOT_OK(table.AppendRow(row));
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  std::ifstream input(path);
  if (!input.is_open()) return Status::IOError("cannot open ", path);
  std::string basename = path;
  const size_t slash = basename.find_last_of('/');
  if (slash != std::string::npos) basename = basename.substr(slash + 1);
  const size_t dot = basename.find_last_of('.');
  if (dot != std::string::npos) basename = basename.substr(0, dot);
  return ReadCsv(input, basename, options);
}

Status WriteCsv(const Table& table, std::ostream& output,
                const CsvOptions& options) {
  const auto names = table.schema().Names();
  for (size_t j = 0; j < names.size(); ++j) {
    if (j > 0) output << options.delimiter;
    output << names[j];
  }
  output << "\n";
  for (size_t i = 0; i < table.NumRows(); ++i) {
    for (size_t j = 0; j < table.NumColumns(); ++j) {
      if (j > 0) output << options.delimiter;
      output << table.column(j).GetValue(i).ToString();
    }
    output << "\n";
  }
  if (!output.good()) return Status::IOError("CSV write failed");
  return Status::OK();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream output(path);
  if (!output.is_open()) return Status::IOError("cannot open ", path);
  return WriteCsv(table, output, options);
}

}  // namespace rel
}  // namespace amalur
