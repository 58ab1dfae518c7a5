#include "core/io.h"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace incdb {

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> SplitCells(const std::string& line) {
  std::vector<std::string> cells;
  std::string cur;
  bool in_quote = false;
  for (char c : line) {
    if (c == '\'' ) {
      in_quote = !in_quote;
      cur += c;
    } else if (c == ',' && !in_quote) {
      cells.push_back(Trim(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  cells.push_back(Trim(cur));
  return cells;
}

bool IsInteger(const std::string& s) {
  if (s.empty()) return false;
  size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

bool IsDecimal(const std::string& s) {
  if (s.find('.') == std::string::npos) return false;
  char* end = nullptr;
  std::string copy = s;
  std::strtod(copy.c_str(), &end);
  return end != nullptr && *end == '\0';
}

StatusOr<Value> ParseCell(const std::string& cell, uint64_t* next_fresh) {
  if (cell == "NULL") return Value::Null((*next_fresh)++);
  if (cell.size() >= 2 && cell[0] == '_' &&
      std::isdigit(static_cast<unsigned char>(cell[1]))) {
    auto id = ParseNumber<uint64_t>(cell.substr(1));
    if (!id.ok()) return id.status();
    return Value::Null(*id);
  }
  if (IsInteger(cell)) {
    auto v = ParseNumber<int64_t>(cell);
    if (!v.ok()) return v.status();
    return Value::Int(*v);
  }
  if (IsDecimal(cell)) {
    auto v = ParseNumber<double>(cell);
    if (!v.ok()) return v.status();
    return Value::Double(*v);
  }
  if (cell.size() >= 2 && cell.front() == '\'' && cell.back() == '\'') {
    return Value::String(cell.substr(1, cell.size() - 2));
  }
  if (cell.empty()) {
    return Status::InvalidArgument("empty cell (use NULL for missing)");
  }
  return Value::String(cell);  // bare word
}

}  // namespace

StatusOr<Relation> LoadRelationCsv(const std::string& text,
                                   uint64_t first_fresh_null) {
  std::istringstream in(text);
  std::string line;
  // Header.
  std::vector<std::string> attrs;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    attrs = SplitCells(line);
    break;
  }
  if (attrs.empty()) {
    return Status::InvalidArgument("CSV text has no header line");
  }
  for (const std::string& a : attrs) {
    if (a.empty()) return Status::InvalidArgument("empty attribute name");
  }
  Relation rel(attrs);
  uint64_t next_fresh = first_fresh_null;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    std::vector<std::string> cells = SplitCells(line);
    if (cells.size() != attrs.size()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": expected " +
          std::to_string(attrs.size()) + " cells, got " +
          std::to_string(cells.size()));
    }
    Tuple t;
    for (const std::string& cell : cells) {
      auto v = ParseCell(cell, &next_fresh);
      if (!v.ok()) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": " + v.status().message());
      }
      t.Append(*v);
    }
    INCDB_RETURN_IF_ERROR(rel.Insert(std::move(t), 1));
  }
  return rel;
}

std::string DumpRelationCsv(const Relation& rel) {
  std::ostringstream out;
  for (size_t i = 0; i < rel.attrs().size(); ++i) {
    if (i) out << ",";
    out << rel.attrs()[i];
  }
  out << "\n";
  for (const auto& [t, c] : rel.SortedRows()) {
    for (uint64_t rep = 0; rep < c; ++rep) {
      for (size_t i = 0; i < t.arity(); ++i) {
        if (i) out << ",";
        const Value& v = t[i];
        switch (v.kind()) {
          case ValueKind::kNull:
            out << "_" << v.null_id();
            break;
          case ValueKind::kInt:
            out << v.as_int();
            break;
          case ValueKind::kDouble:
            out << v.as_double();
            break;
          case ValueKind::kString:
            out << "'" << v.as_string() << "'";
            break;
          case ValueKind::kParam:
            // Parameters never occur in relation data; render defensively.
            out << "?" << v.param_index();
            break;
        }
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace incdb
