#include "sql/parser.h"

#include <cassert>

namespace incdb {

namespace {

/// A number token as a constant: Int without a decimal point, Double with
/// one. A literal out of range is kInvalidArgument at the token's offset.
StatusOr<Value> NumericLiteral(const Token& tok) {
  Status bad;
  if (tok.text.find('.') == std::string::npos) {
    auto v = ParseNumber<int64_t>(tok.text);
    if (v.ok()) return Value::Int(*v);
    bad = v.status();
  } else {
    auto v = ParseNumber<double>(tok.text);
    if (v.ok()) return Value::Double(*v);
    bad = v.status();
  }
  return Status::InvalidArgument(bad.message() + " at offset " +
                                 std::to_string(tok.pos));
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  StatusOr<SqlQueryPtr> ParseQuery() {
    auto q = ParseSelect();
    if (!q.ok()) return q.status();
    if (!AtEof()) {
      return Status::InvalidArgument("trailing input after query at offset " +
                                     std::to_string(Peek().pos));
    }
    (*q)->param_count = next_param_;
    return SqlQueryPtr(*q);
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(pos_ + ahead, toks_.size() - 1);
    return toks_[i];
  }
  const Token& Next() { return toks_[std::min(pos_++, toks_.size() - 1)]; }
  bool AtEof() const { return Peek().kind == TokKind::kEof; }

  bool AcceptKeyword(const std::string& kw) {
    if (Peek().kind == TokKind::kKeyword && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptSymbol(const std::string& s) {
    if (Peek().kind == TokKind::kSymbol && Peek().text == s) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) {
      return Status::InvalidArgument("expected " + kw + " at offset " +
                                     std::to_string(Peek().pos));
    }
    return Status::OK();
  }
  Status ExpectSymbol(const std::string& s) {
    if (!AcceptSymbol(s)) {
      return Status::InvalidArgument("expected '" + s + "' at offset " +
                                     std::to_string(Peek().pos));
    }
    return Status::OK();
  }

  StatusOr<std::shared_ptr<SqlQuery>> ParseSelect() {
    INCDB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    auto q = std::make_shared<SqlQuery>();
    q->distinct = AcceptKeyword("DISTINCT");
    if (AcceptSymbol("*")) {
      q->select_star = true;
    } else {
      while (true) {
        auto col = ParseColumn();
        if (!col.ok()) return col.status();
        q->select.push_back(*col);
        if (!AcceptSymbol(",")) break;
      }
    }
    INCDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    while (true) {
      if (Peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected table name at offset " +
                                       std::to_string(Peek().pos));
      }
      SqlTableRef ref;
      ref.pos = Peek().pos;
      ref.table = Next().text;
      AcceptKeyword("AS");
      if (Peek().kind == TokKind::kIdent) {
        ref.alias = Next().text;
      } else {
        ref.alias = ref.table;
      }
      q->from.push_back(std::move(ref));
      if (!AcceptSymbol(",")) break;
    }
    if (AcceptKeyword("WHERE")) {
      auto w = ParseOr();
      if (!w.ok()) return w.status();
      q->where = *w;
    }
    if (AcceptKeyword("UNION")) {
      auto next = ParseSelect();
      if (!next.ok()) return next;
      q->union_next = *next;
    }
    return q;
  }

  StatusOr<SqlColumn> ParseColumn() {
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected column at offset " +
                                     std::to_string(Peek().pos));
    }
    SqlColumn col;
    col.pos = Peek().pos;
    col.name = Next().text;
    if (AcceptSymbol(".")) {
      if (Peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected column name after '.'");
      }
      col.qualifier = col.name;
      col.name = Next().text;
    }
    return col;
  }

  StatusOr<SqlExprPtr> ParseOr() {
    auto l = ParseAnd();
    if (!l.ok()) return l;
    SqlExprPtr out = *l;
    while (AcceptKeyword("OR")) {
      auto r = ParseAnd();
      if (!r.ok()) return r;
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExprKind::kOr;
      node->l = out;
      node->r = *r;
      out = node;
    }
    return out;
  }

  StatusOr<SqlExprPtr> ParseAnd() {
    auto l = ParseNot();
    if (!l.ok()) return l;
    SqlExprPtr out = *l;
    while (AcceptKeyword("AND")) {
      auto r = ParseNot();
      if (!r.ok()) return r;
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExprKind::kAnd;
      node->l = out;
      node->r = *r;
      out = node;
    }
    return out;
  }

  StatusOr<SqlExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      // NOT EXISTS is folded into the kExists node.
      if (Peek().kind == TokKind::kKeyword && Peek().text == "EXISTS") {
        auto e = ParsePrimary();
        if (!e.ok()) return e;
        auto node = std::make_shared<SqlExpr>(**e);
        node->negated = !node->negated;
        return SqlExprPtr(node);
      }
      auto e = ParseNot();
      if (!e.ok()) return e;
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExprKind::kNot;
      node->l = *e;
      return SqlExprPtr(node);
    }
    return ParsePrimary();
  }

  StatusOr<SqlExprPtr> ParsePrimary() {
    if (AcceptSymbol("(")) {
      auto e = ParseOr();
      if (!e.ok()) return e;
      INCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      return e;
    }
    if (AcceptKeyword("EXISTS")) {
      INCDB_RETURN_IF_ERROR(ExpectSymbol("("));
      auto sub = ParseSelect();
      if (!sub.ok()) return sub.status();
      INCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExprKind::kExists;
      node->subquery = *sub;
      return SqlExprPtr(node);
    }
    // Column-headed predicates.
    auto col = ParseColumn();
    if (!col.ok()) return col.status();
    if (AcceptKeyword("IS")) {
      bool negated = AcceptKeyword("NOT");
      INCDB_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExprKind::kIsNull;
      node->negated = negated;
      node->lhs = *col;
      return SqlExprPtr(node);
    }
    bool not_in = false;
    if (AcceptKeyword("NOT")) {
      not_in = true;
      INCDB_RETURN_IF_ERROR(ExpectKeyword("IN"));
    } else if (AcceptKeyword("IN")) {
      not_in = false;
    } else {
      // Comparison.
      SqlCmpOp op;
      if (AcceptSymbol("=")) {
        op = SqlCmpOp::kEq;
      } else if (AcceptSymbol("<>")) {
        op = SqlCmpOp::kNeq;
      } else if (AcceptSymbol("<=")) {
        op = SqlCmpOp::kLe;
      } else if (AcceptSymbol(">=")) {
        op = SqlCmpOp::kGe;
      } else if (AcceptSymbol("<")) {
        op = SqlCmpOp::kLt;
      } else if (AcceptSymbol(">")) {
        op = SqlCmpOp::kGt;
      } else {
        return Status::InvalidArgument("expected comparison at offset " +
                                       std::to_string(Peek().pos));
      }
      auto node = std::make_shared<SqlExpr>();
      node->op = op;
      node->lhs = *col;
      if (Peek().kind == TokKind::kNumber) {
        auto lit = NumericLiteral(Next());
        if (!lit.ok()) return lit.status();
        node->kind = SqlExprKind::kCmpColLit;
        node->literal = *lit;
      } else if (Peek().kind == TokKind::kString) {
        node->kind = SqlExprKind::kCmpColLit;
        node->literal = Value::String(Next().text);
      } else if (AcceptSymbol("?")) {
        // Positional parameter placeholder, numbered in textual order.
        node->kind = SqlExprKind::kCmpColLit;
        node->literal = Value::Param(static_cast<uint32_t>(next_param_++));
      } else {
        auto rhs = ParseColumn();
        if (!rhs.ok()) return rhs.status();
        node->kind = SqlExprKind::kCmpColCol;
        node->rhs = *rhs;
      }
      return SqlExprPtr(node);
    }
    INCDB_RETURN_IF_ERROR(ExpectSymbol("("));
    auto sub = ParseSelect();
    if (!sub.ok()) return sub.status();
    INCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    auto node = std::make_shared<SqlExpr>();
    node->kind = SqlExprKind::kInSubquery;
    node->negated = not_in;
    node->lhs = *col;
    node->subquery = *sub;
    return SqlExprPtr(node);
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  size_t next_param_ = 0;  ///< `?` placeholders seen so far, in text order.
};

}  // namespace

StatusOr<SqlQueryPtr> ParseSql(const std::string& sql) {
  auto toks = Tokenize(sql);
  if (!toks.ok()) return toks.status();
  Parser parser(std::move(toks).value());
  return parser.ParseQuery();
}

}  // namespace incdb
