#include "audit/query.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace dla::audit {

std::string_view to_string(CmpOp op) {
  switch (op) {
    case CmpOp::Lt: return "<";
    case CmpOp::Le: return "<=";
    case CmpOp::Gt: return ">";
    case CmpOp::Ge: return ">=";
    case CmpOp::Eq: return "=";
    case CmpOp::Ne: return "!=";
  }
  return "?";
}

CmpOp negate(CmpOp op) {
  switch (op) {
    case CmpOp::Lt: return CmpOp::Ge;
    case CmpOp::Le: return CmpOp::Gt;
    case CmpOp::Gt: return CmpOp::Le;
    case CmpOp::Ge: return CmpOp::Lt;
    case CmpOp::Eq: return CmpOp::Ne;
    case CmpOp::Ne: return CmpOp::Eq;
  }
  return op;
}

Expr Expr::make_pred(Predicate p) {
  Expr e;
  e.kind = Kind::Pred;
  e.pred = std::move(p);
  return e;
}

Expr Expr::make_and(std::vector<Expr> children) {
  Expr e;
  e.kind = Kind::And;
  e.children = std::move(children);
  return e;
}

Expr Expr::make_or(std::vector<Expr> children) {
  Expr e;
  e.kind = Kind::Or;
  e.children = std::move(children);
  return e;
}

Expr Expr::make_not(Expr child) {
  Expr e;
  e.kind = Kind::Not;
  e.children.push_back(std::move(child));
  return e;
}

namespace {

// ---------------------------------------------------------------- lexer --

enum class TokKind {
  Ident, Number, Text, Op, LParen, RParen, Comma, And, Or, Not, In, Between,
  End
};

struct Token {
  TokKind kind;
  std::string text;  // ident name, op symbol, literal body
  double number = 0;
  bool number_is_int = false;
  std::int64_t int_value = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  Token next() {
    skip_ws();
    if (pos_ >= src_.size()) return {TokKind::End, ""};
    char c = src_[pos_];
    if (c == '(') { ++pos_; return {TokKind::LParen, "("}; }
    if (c == ')') { ++pos_; return {TokKind::RParen, ")"}; }
    if (c == ',') { ++pos_; return {TokKind::Comma, ","}; }
    if (c == '\'' || c == '"') return lex_text(c);
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < src_.size() &&
         std::isdigit(static_cast<unsigned char>(src_[pos_ + 1])))) {
      return lex_number();
    }
    if (is_op_char(c)) return lex_op();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return lex_ident();
    }
    throw ParseError(std::string("unexpected character '") + c + "'");
  }

 private:
  static bool is_op_char(char c) {
    return c == '<' || c == '>' || c == '=' || c == '!';
  }

  void skip_ws() {
    while (pos_ < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[pos_]))) {
      ++pos_;
    }
  }

  Token lex_text(char quote) {
    ++pos_;
    std::string body;
    while (pos_ < src_.size() && src_[pos_] != quote) body.push_back(src_[pos_++]);
    if (pos_ >= src_.size()) throw ParseError("unterminated string literal");
    ++pos_;
    return {TokKind::Text, std::move(body)};
  }

  Token lex_number() {
    std::size_t start = pos_;
    if (src_[pos_] == '-') ++pos_;
    bool has_dot = false;
    while (pos_ < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '.')) {
      if (src_[pos_] == '.') {
        if (has_dot) break;
        has_dot = true;
      }
      ++pos_;
    }
    std::string body(src_.substr(start, pos_ - start));
    Token tok{TokKind::Number, body};
    const char* first = body.data();
    const char* last = first + body.size();
    std::from_chars_result res{};
    if (has_dot) {
      res = std::from_chars(first, last, tok.number);
      tok.number_is_int = false;
    } else {
      res = std::from_chars(first, last, tok.int_value);
      tok.number = static_cast<double>(tok.int_value);
      tok.number_is_int = true;
    }
    if (res.ec == std::errc::result_out_of_range) {
      throw ParseError("number '" + body + "' out of range");
    }
    if (res.ec != std::errc() || res.ptr != last) {
      throw ParseError("malformed number '" + body + "'");
    }
    return tok;
  }

  Token lex_op() {
    std::size_t start = pos_;
    ++pos_;
    if (pos_ < src_.size() && src_[pos_] == '=') ++pos_;
    std::string sym(src_.substr(start, pos_ - start));
    if (sym == "<" || sym == "<=" || sym == ">" || sym == ">=" || sym == "=" ||
        sym == "==" || sym == "!=") {
      return {TokKind::Op, sym == "==" ? "=" : sym};
    }
    throw ParseError("unknown operator '" + sym + "'");
  }

  Token lex_ident() {
    std::size_t start = pos_;
    while (pos_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '_')) {
      ++pos_;
    }
    std::string word(src_.substr(start, pos_ - start));
    std::string upper;
    for (char c : word) upper.push_back(static_cast<char>(std::toupper(c)));
    if (upper == "AND") return {TokKind::And, word};
    if (upper == "OR") return {TokKind::Or, word};
    if (upper == "NOT") return {TokKind::Not, word};
    if (upper == "IN") return {TokKind::In, word};
    if (upper == "BETWEEN") return {TokKind::Between, word};
    return {TokKind::Ident, std::move(word)};
  }

  std::string_view src_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------------------- parser --

class Parser {
 public:
  Parser(std::string_view src, const logm::Schema& schema)
      : lexer_(src), schema_(schema) {
    advance();
  }

  Expr parse_query() {
    Expr e = parse_or();
    expect(TokKind::End, "end of input");
    return e;
  }

 private:
  void advance() { cur_ = lexer_.next(); }

  void expect(TokKind kind, const char* what) {
    if (cur_.kind != kind)
      throw ParseError(std::string("expected ") + what + " near '" +
                       cur_.text + "'");
  }

  Expr parse_or() {
    std::vector<Expr> terms;
    terms.push_back(parse_and());
    while (cur_.kind == TokKind::Or) {
      advance();
      terms.push_back(parse_and());
    }
    if (terms.size() == 1) return std::move(terms[0]);
    return Expr::make_or(std::move(terms));
  }

  Expr parse_and() {
    std::vector<Expr> terms;
    terms.push_back(parse_not());
    while (cur_.kind == TokKind::And) {
      advance();
      terms.push_back(parse_not());
    }
    if (terms.size() == 1) return std::move(terms[0]);
    return Expr::make_and(std::move(terms));
  }

  Expr parse_not() {
    if (cur_.kind == TokKind::Not) {
      advance();
      return Expr::make_not(parse_not());
    }
    if (cur_.kind == TokKind::LParen) {
      advance();
      Expr e = parse_or();
      expect(TokKind::RParen, "')'");
      advance();
      return e;
    }
    return parse_predicate();
  }

  CmpOp to_op(const std::string& sym) {
    if (sym == "<") return CmpOp::Lt;
    if (sym == "<=") return CmpOp::Le;
    if (sym == ">") return CmpOp::Gt;
    if (sym == ">=") return CmpOp::Ge;
    if (sym == "=") return CmpOp::Eq;
    return CmpOp::Ne;
  }

  // Builds a constant-comparison predicate, validating types.
  Expr make_const_pred(const std::string& attr, CmpOp op, const Token& lit) {
    const auto& def = schema_.at(attr);
    Predicate p;
    p.lhs = attr;
    p.op = op;
    if (lit.kind == TokKind::Number) {
      if (def.type == logm::ValueType::Text)
        throw ParseError("text attribute '" + attr + "' compared to a number");
      if (lit.number_is_int && def.type == logm::ValueType::Int) {
        p.rhs_const = logm::Value(lit.int_value);
      } else {
        p.rhs_const = logm::Value(lit.number);
      }
    } else if (lit.kind == TokKind::Text) {
      if (def.type != logm::ValueType::Text)
        throw ParseError("numeric attribute '" + attr +
                         "' compared to a string");
      if (op != CmpOp::Eq && op != CmpOp::Ne)
        throw ParseError("text attributes support only = and !=");
      p.rhs_const = logm::Value(lit.text);
    } else {
      throw ParseError("expected a literal");
    }
    return Expr::make_pred(std::move(p));
  }

  // A IN (v1, v2, ...) desugars to (A = v1 OR A = v2 OR ...).
  Expr parse_in_list(const std::string& attr) {
    expect(TokKind::LParen, "'(' after IN");
    advance();
    std::vector<Expr> alternatives;
    for (;;) {
      alternatives.push_back(make_const_pred(attr, CmpOp::Eq, cur_));
      advance();
      if (cur_.kind == TokKind::Comma) {
        advance();
        continue;
      }
      break;
    }
    expect(TokKind::RParen, "')' after IN list");
    advance();
    if (alternatives.size() == 1) return std::move(alternatives[0]);
    return Expr::make_or(std::move(alternatives));
  }

  // A BETWEEN lo AND hi desugars to (A >= lo AND A <= hi).
  Expr parse_between(const std::string& attr) {
    Expr lower = make_const_pred(attr, CmpOp::Ge, cur_);
    advance();
    expect(TokKind::And, "AND in BETWEEN");
    advance();
    Expr upper = make_const_pred(attr, CmpOp::Le, cur_);
    advance();
    std::vector<Expr> bounds;
    bounds.push_back(std::move(lower));
    bounds.push_back(std::move(upper));
    return Expr::make_and(std::move(bounds));
  }

  Expr parse_predicate() {
    expect(TokKind::Ident, "attribute name");
    Predicate p;
    p.lhs = cur_.text;
    if (!schema_.contains(p.lhs))
      throw ParseError("unknown attribute '" + p.lhs + "'");
    advance();
    if (cur_.kind == TokKind::In) {
      advance();
      return parse_in_list(p.lhs);
    }
    if (cur_.kind == TokKind::Between) {
      advance();
      return parse_between(p.lhs);
    }
    expect(TokKind::Op, "comparison operator");
    p.op = to_op(cur_.text);
    advance();

    const auto& lhs_def = schema_.at(p.lhs);
    switch (cur_.kind) {
      case TokKind::Ident: {
        p.rhs_is_attr = true;
        p.rhs_attr = cur_.text;
        if (!schema_.contains(p.rhs_attr))
          throw ParseError("unknown attribute '" + p.rhs_attr + "'");
        const auto& rhs_def = schema_.at(p.rhs_attr);
        bool lhs_text = lhs_def.type == logm::ValueType::Text;
        bool rhs_text = rhs_def.type == logm::ValueType::Text;
        if (lhs_text != rhs_text)
          throw ParseError("type mismatch: " + p.lhs + " vs " + p.rhs_attr);
        if (lhs_text && p.op != CmpOp::Eq && p.op != CmpOp::Ne)
          throw ParseError("text attributes support only = and !=");
        break;
      }
      case TokKind::Number: {
        if (lhs_def.type == logm::ValueType::Text)
          throw ParseError("text attribute '" + p.lhs +
                           "' compared to a number");
        if (cur_.number_is_int && lhs_def.type == logm::ValueType::Int) {
          p.rhs_const = logm::Value(cur_.int_value);
        } else {
          p.rhs_const = logm::Value(cur_.number);
        }
        break;
      }
      case TokKind::Text: {
        if (lhs_def.type != logm::ValueType::Text)
          throw ParseError("numeric attribute '" + p.lhs +
                           "' compared to a string");
        if (p.op != CmpOp::Eq && p.op != CmpOp::Ne)
          throw ParseError("text attributes support only = and !=");
        p.rhs_const = logm::Value(cur_.text);
        break;
      }
      default:
        throw ParseError("expected attribute, number, or string after operator");
    }
    advance();
    return Expr::make_pred(std::move(p));
  }

  Lexer lexer_;
  Token cur_{TokKind::End, ""};
  const logm::Schema& schema_;
};

void collect_attributes(const Expr& expr, std::set<std::string>& out) {
  if (expr.kind == Expr::Kind::Pred) {
    out.insert(expr.pred.lhs);
    if (expr.pred.rhs_is_attr) out.insert(expr.pred.rhs_attr);
    return;
  }
  for (const auto& child : expr.children) collect_attributes(child, out);
}

void collect_stats(const Expr& expr, PredicateStats& stats) {
  if (expr.kind == Expr::Kind::Pred) {
    ++stats.atomic;
    if (expr.pred.rhs_is_attr) ++stats.cross_attr;
    return;
  }
  for (const auto& child : expr.children) collect_stats(child, stats);
}

}  // namespace

Expr parse(std::string_view text, const logm::Schema& schema) {
  return Parser(text, schema).parse_query();
}

bool compare_values(const logm::Value& lhs, CmpOp op, const logm::Value& rhs) {
  if (op == CmpOp::Eq) return lhs == rhs;
  if (op == CmpOp::Ne) return !(lhs == rhs);
  auto c = lhs.compare(rhs);
  switch (op) {
    case CmpOp::Lt: return c == std::partial_ordering::less;
    case CmpOp::Le: return c != std::partial_ordering::greater;
    case CmpOp::Gt: return c == std::partial_ordering::greater;
    case CmpOp::Ge: return c != std::partial_ordering::less;
    default: return false;
  }
}

Expr push_negations(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::Pred:
      return expr;
    case Expr::Kind::And: {
      std::vector<Expr> children;
      children.reserve(expr.children.size());
      for (const auto& c : expr.children) children.push_back(push_negations(c));
      return Expr::make_and(std::move(children));
    }
    case Expr::Kind::Or: {
      std::vector<Expr> children;
      children.reserve(expr.children.size());
      for (const auto& c : expr.children) children.push_back(push_negations(c));
      return Expr::make_or(std::move(children));
    }
    case Expr::Kind::Not: {
      const Expr& inner = expr.children.front();
      switch (inner.kind) {
        case Expr::Kind::Pred: {
          Predicate p = inner.pred;
          p.op = negate(p.op);
          return Expr::make_pred(std::move(p));
        }
        case Expr::Kind::Not:
          return push_negations(inner.children.front());
        case Expr::Kind::And: {
          // De Morgan: NOT(a AND b) == NOT a OR NOT b.
          std::vector<Expr> children;
          for (const auto& c : inner.children)
            children.push_back(push_negations(Expr::make_not(c)));
          return Expr::make_or(std::move(children));
        }
        case Expr::Kind::Or: {
          std::vector<Expr> children;
          for (const auto& c : inner.children)
            children.push_back(push_negations(Expr::make_not(c)));
          return Expr::make_and(std::move(children));
        }
      }
      break;
    }
  }
  throw std::logic_error("push_negations: corrupt expression");
}

std::vector<Expr> to_conjunctive(const Expr& expr) {
  if (expr.kind == Expr::Kind::Not)
    throw std::invalid_argument("to_conjunctive: run push_negations first");
  if (expr.kind != Expr::Kind::And) return {expr};
  std::vector<Expr> out;
  for (const auto& child : expr.children) {
    auto sub = to_conjunctive(child);
    out.insert(out.end(), std::make_move_iterator(sub.begin()),
               std::make_move_iterator(sub.end()));
  }
  return out;
}

std::set<std::string> attributes_of(const Expr& expr) {
  std::set<std::string> out;
  collect_attributes(expr, out);
  return out;
}

PredicateStats predicate_stats(const Expr& expr) {
  PredicateStats stats;
  collect_stats(expr, stats);
  return stats;
}

std::vector<Subquery> classify(const std::vector<Expr>& conjuncts,
                               const logm::AttributePartition& partition) {
  std::vector<Subquery> out;
  out.reserve(conjuncts.size());
  for (const auto& expr : conjuncts) {
    Subquery sq;
    sq.expr = expr;
    for (const auto& attr : attributes_of(expr)) {
      sq.nodes.insert(partition.node_for(attr));
    }
    out.push_back(std::move(sq));
  }
  return out;
}

bool evaluate(const Expr& expr,
              const std::map<std::string, logm::Value>& attrs) {
  switch (expr.kind) {
    case Expr::Kind::Pred: {
      const Predicate& p = expr.pred;
      const logm::Value& lhs = attrs.at(p.lhs);
      const logm::Value& rhs =
          p.rhs_is_attr ? attrs.at(p.rhs_attr) : p.rhs_const;
      return compare_values(lhs, p.op, rhs);
    }
    case Expr::Kind::And:
      for (const auto& c : expr.children) {
        if (!evaluate(c, attrs)) return false;
      }
      return true;
    case Expr::Kind::Or:
      for (const auto& c : expr.children) {
        if (evaluate(c, attrs)) return true;
      }
      return false;
    case Expr::Kind::Not:
      return !evaluate(expr.children.front(), attrs);
  }
  throw std::logic_error("evaluate: corrupt expression");
}

namespace {

// The shortest fixed-notation text that reads back as the same double,
// always with a '.', so the lexer reads it back as the same real.
std::string real_text(double v) {
  // Fixed notation of a double takes at most 327 characters.
  std::array<char, 400> buf{};
  auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                           std::chars_format::fixed);
  std::string text(buf.data(), res.ptr);
  if (text.find('.') == std::string::npos) text += ".0";
  return text;
}

}  // namespace

std::string to_text(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::Pred: {
      std::ostringstream os;
      const Predicate& p = expr.pred;
      os << p.lhs << ' ' << to_string(p.op) << ' ';
      if (p.rhs_is_attr) {
        os << p.rhs_attr;
      } else if (p.rhs_const.type() == logm::ValueType::Text) {
        // The lexer has no escapes, so a text holding ' is quoted with ";
        // no parsed text holds both.
        const std::string& text = p.rhs_const.as_text();
        const char quote = text.find('\'') == std::string::npos ? '\'' : '"';
        os << quote << text << quote;
      } else if (p.rhs_const.type() == logm::ValueType::Int) {
        os << p.rhs_const.as_int();
      } else {
        os << real_text(p.rhs_const.as_real());
      }
      return os.str();
    }
    case Expr::Kind::And:
    case Expr::Kind::Or: {
      std::string joiner = expr.kind == Expr::Kind::And ? " AND " : " OR ";
      std::string s = "(";
      for (std::size_t i = 0; i < expr.children.size(); ++i) {
        if (i) s += joiner;
        s += to_text(expr.children[i]);
      }
      return s + ")";
    }
    case Expr::Kind::Not:
      return "NOT " + to_text(expr.children.front());
  }
  return "?";
}

}  // namespace dla::audit
