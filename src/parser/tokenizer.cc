#include "parser/tokenizer.h"

#include <cctype>

#include "util/strings.h"

namespace mpfdb::parser {
namespace {

bool IsIdentifierStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentifierChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

StatusOr<std::vector<Token>> Tokenize(const std::string& statement) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = statement.size();
  while (i < n) {
    char c = statement[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (IsIdentifierStart(c)) {
      size_t start = i;
      while (i < n && IsIdentifierChar(statement[i])) ++i;
      tokens.push_back(Token{TokenKind::kIdentifier,
                             statement.substr(start, i - start), start});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(statement[i + 1])))) {
      size_t start = i;
      if (c == '-') ++i;
      while (i < n && (std::isdigit(static_cast<unsigned char>(statement[i])) ||
                       statement[i] == '.' || statement[i] == 'e' ||
                       statement[i] == 'E' ||
                       ((statement[i] == '-' || statement[i] == '+') &&
                        i > start &&
                        (statement[i - 1] == 'e' ||
                         statement[i - 1] == 'E')))) {
        ++i;
      }
      tokens.push_back(
          Token{TokenKind::kNumber, statement.substr(start, i - start), start});
      continue;
    }
    static const std::string kSymbols = "(),;=*&.+<>";
    if (kSymbols.find(c) != std::string::npos) {
      tokens.push_back(Token{TokenKind::kSymbol, std::string(1, c), i});
      ++i;
      continue;
    }
    return Status::InvalidArgument("unexpected character '" +
                                   std::string(1, c) + "' at offset " +
                                   std::to_string(i));
  }
  tokens.push_back(Token{TokenKind::kEnd, "", n});
  return tokens;
}

const Token& TokenCursor::Peek() const { return tokens_[position_]; }

Token TokenCursor::Next() {
  Token token = tokens_[position_];
  if (position_ + 1 < tokens_.size()) ++position_;
  return token;
}

bool TokenCursor::AtEnd() const {
  return tokens_[position_].kind == TokenKind::kEnd ||
         (tokens_[position_].kind == TokenKind::kSymbol &&
          tokens_[position_].text == ";");
}

bool TokenCursor::TryKeyword(const std::string& keyword) {
  const Token& token = Peek();
  if (token.kind == TokenKind::kIdentifier &&
      ToLower(token.text) == ToLower(keyword)) {
    Next();
    return true;
  }
  return false;
}

Status TokenCursor::ExpectKeyword(const std::string& keyword) {
  if (TryKeyword(keyword)) return Status::Ok();
  return Status::InvalidArgument("expected '" + keyword + "' but found '" +
                                 Peek().text + "' at offset " +
                                 std::to_string(Peek().offset));
}

Status TokenCursor::ExpectSymbol(const std::string& symbol) {
  if (TrySymbol(symbol)) return Status::Ok();
  return Status::InvalidArgument("expected '" + symbol + "' but found '" +
                                 Peek().text + "' at offset " +
                                 std::to_string(Peek().offset));
}

bool TokenCursor::TrySymbol(const std::string& symbol) {
  const Token& token = Peek();
  if (token.kind == TokenKind::kSymbol && token.text == symbol) {
    Next();
    return true;
  }
  return false;
}

StatusOr<std::string> TokenCursor::ExpectIdentifier() {
  const Token& token = Peek();
  if (token.kind != TokenKind::kIdentifier) {
    return Status::InvalidArgument("expected an identifier but found '" +
                                   token.text + "' at offset " +
                                   std::to_string(token.offset));
  }
  return Next().text;
}

StatusOr<int64_t> TokenCursor::ExpectInteger() {
  const Token& token = Peek();
  if (token.kind != TokenKind::kNumber ||
      token.text.find_first_of(".eE") != std::string::npos) {
    return Status::InvalidArgument("expected an integer but found '" +
                                   token.text + "' at offset " +
                                   std::to_string(token.offset));
  }
  return static_cast<int64_t>(std::stoll(Next().text));
}

StatusOr<double> TokenCursor::ExpectNumber() {
  const Token& token = Peek();
  if (token.kind != TokenKind::kNumber) {
    return Status::InvalidArgument("expected a number but found '" +
                                   token.text + "' at offset " +
                                   std::to_string(token.offset));
  }
  return std::stod(Next().text);
}

}  // namespace mpfdb::parser
