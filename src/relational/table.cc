#include "relational/table.h"

#include <sstream>

#include "common/status.h"

namespace amalur {
namespace rel {

Table::Table(std::string name, std::vector<Column> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {
  for (const Column& col : columns_) {
    AMALUR_CHECK_EQ(col.size(), columns_[0].size())
        << "ragged columns in table " << name_;
  }
}

Table Table::FromSchema(std::string name, const Schema& schema) {
  Table table(std::move(name));
  for (const Field& field : schema.fields()) {
    table.columns_.emplace_back(field.name, field.type);
  }
  return table;
}

Schema Table::schema() const {
  std::vector<Field> fields;
  fields.reserve(columns_.size());
  for (const Column& col : columns_) {
    fields.push_back({col.name(), col.type(), true});
  }
  return Schema(std::move(fields));
}

Result<size_t> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name() == name) return i;
  }
  return Status::NotFound("column '", name, "' in table '", name_, "'");
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  AMALUR_ASSIGN_OR_RETURN(size_t index, ColumnIndex(name));
  return &columns_[index];
}

Status Table::AddColumn(Column column) {
  if (!columns_.empty() && column.size() != NumRows()) {
    return Status::InvalidArgument("column '", column.name(), "' has ",
                                   column.size(), " rows, table has ", NumRows());
  }
  for (const Column& existing : columns_) {
    if (existing.name() == column.name()) {
      return Status::AlreadyExists("column '", column.name(), "'");
    }
  }
  columns_.push_back(std::move(column));
  return Status::OK();
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument("row has ", values.size(), " values, table has ",
                                   columns_.size(), " columns");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    columns_[i].AppendValue(values[i]);
  }
  return Status::OK();
}

Table Table::Project(const std::vector<size_t>& indices) const {
  std::vector<Column> projected;
  projected.reserve(indices.size());
  for (size_t i : indices) {
    AMALUR_CHECK_LT(i, columns_.size()) << "projection index out of range";
    projected.push_back(columns_[i]);
  }
  return Table(name_, std::move(projected));
}

Result<Table> Table::ProjectNames(const std::vector<std::string>& names) const {
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) {
    AMALUR_ASSIGN_OR_RETURN(size_t index, ColumnIndex(name));
    indices.push_back(index);
  }
  return Project(indices);
}

Table Table::GatherRows(const std::vector<size_t>& rows) const {
  std::vector<Column> gathered;
  gathered.reserve(columns_.size());
  for (const Column& col : columns_) gathered.push_back(col.Gather(rows));
  return Table(name_, std::move(gathered));
}

double Table::NullRatio(const std::vector<size_t>& column_indices) const {
  const size_t cells = NumRows() * column_indices.size();
  if (cells == 0) return 0.0;
  size_t nulls = 0;
  for (size_t c : column_indices) nulls += column(c).NullCount();
  return static_cast<double>(nulls) / static_cast<double>(cells);
}

Result<la::DenseMatrix> Table::ToMatrix(const std::vector<size_t>& column_indices,
                                        double null_substitute) const {
  la::DenseMatrix out(NumRows(), column_indices.size());
  for (size_t j = 0; j < column_indices.size(); ++j) {
    const size_t c = column_indices[j];
    if (c >= columns_.size()) {
      return Status::OutOfRange("column index ", c, " out of ", columns_.size());
    }
    const Column& col = columns_[c];
    if (col.type() == DataType::kString) {
      return Status::InvalidArgument("column '", col.name(),
                                     "' is a string column; encode it first");
    }
    for (size_t i = 0; i < col.size(); ++i) {
      out.At(i, j) = col.GetDouble(i, null_substitute);
    }
  }
  return out;
}

Result<la::DenseMatrix> Table::ToMatrix() const {
  std::vector<size_t> all(columns_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return ToMatrix(all, 0.0);
}

Table Table::FromMatrix(std::string name, const la::DenseMatrix& matrix,
                        const std::vector<std::string>& column_names) {
  AMALUR_CHECK_EQ(column_names.size(), matrix.cols())
      << "column name count mismatch";
  std::vector<Column> columns;
  columns.reserve(matrix.cols());
  for (size_t j = 0; j < matrix.cols(); ++j) {
    std::vector<double> values(matrix.rows());
    for (size_t i = 0; i < matrix.rows(); ++i) values[i] = matrix.At(i, j);
    columns.push_back(Column::FromDoubles(column_names[j], std::move(values)));
  }
  return Table(std::move(name), std::move(columns));
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream out;
  out << name_ << " [" << NumRows() << " rows]\n  ";
  for (size_t j = 0; j < columns_.size(); ++j) {
    if (j > 0) out << " | ";
    out << columns_[j].name();
  }
  out << "\n";
  const size_t shown = std::min(NumRows(), max_rows);
  for (size_t i = 0; i < shown; ++i) {
    out << "  ";
    for (size_t j = 0; j < columns_.size(); ++j) {
      if (j > 0) out << " | ";
      const Value v = columns_[j].GetValue(i);
      out << (v.is_null() ? "∅" : v.ToString());
    }
    out << "\n";
  }
  if (shown < NumRows()) out << "  ... (" << NumRows() - shown << " more rows)\n";
  return out.str();
}

}  // namespace rel
}  // namespace amalur
