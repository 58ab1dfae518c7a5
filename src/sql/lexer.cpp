#include "sql/lexer.h"

#include <cctype>
#include <set>

namespace incdb {

namespace {
const std::set<std::string>& Keywords() {
  static const std::set<std::string> kw = {
      "SELECT", "FROM", "WHERE",    "AND", "OR", "NOT",
      "IN",     "EXISTS", "IS",     "NULL", "DISTINCT", "AS",
      "UNION",
  };
  return kw;
}

std::string Upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}
}  // namespace

StatusOr<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      std::string word = sql.substr(start, i - start);
      std::string up = Upper(word);
      if (Keywords().count(up)) {
        out.push_back(Token{TokKind::kKeyword, up, start});
      } else {
        out.push_back(Token{TokKind::kIdent, word, start});
      }
      continue;
    }
    // A '-' directly before a digit is the literal's sign (the grammar has
    // no arithmetic, so it cannot be a binary minus).
    const bool negative = c == '-' && i + 1 < n &&
                          std::isdigit(static_cast<unsigned char>(sql[i + 1]));
    if (negative || std::isdigit(static_cast<unsigned char>(c))) {
      if (negative) ++i;
      bool dot = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(sql[i])) ||
                       (!dot && sql[i] == '.'))) {
        if (sql[i] == '.') {
          // A dot not followed by a digit is a qualifier, not a decimal.
          if (i + 1 >= n || !std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
            break;
          }
          dot = true;
        }
        ++i;
      }
      out.push_back(Token{TokKind::kNumber, sql.substr(start, i - start), start});
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string text;
      while (i < n && sql[i] != '\'') text += sql[i++];
      if (i >= n) {
        return Status::InvalidArgument("unterminated string literal at offset " +
                                       std::to_string(start));
      }
      ++i;  // closing quote
      out.push_back(Token{TokKind::kString, text, start});
      continue;
    }
    if (c == '<' && i + 1 < n && sql[i + 1] == '>') {
      out.push_back(Token{TokKind::kSymbol, "<>", start});
      i += 2;
      continue;
    }
    if ((c == '<' || c == '>') && i + 1 < n && sql[i + 1] == '=') {
      out.push_back(Token{TokKind::kSymbol, std::string(1, c) + "=", start});
      i += 2;
      continue;
    }
    if (c == '<' || c == '>') {
      out.push_back(Token{TokKind::kSymbol, std::string(1, c), start});
      ++i;
      continue;
    }
    if (c == '(' || c == ')' || c == ',' || c == '.' || c == '=' ||
        c == '*' || c == '?') {
      out.push_back(Token{TokKind::kSymbol, std::string(1, c), start});
      ++i;
      continue;
    }
    return Status::InvalidArgument("unexpected character '" +
                                   std::string(1, c) + "' at offset " +
                                   std::to_string(start));
  }
  out.push_back(Token{TokKind::kEof, "", n});
  return out;
}

}  // namespace incdb
