#ifndef MPFDB_PARSER_TOKENIZER_H_
#define MPFDB_PARSER_TOKENIZER_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace mpfdb::parser {

enum class TokenKind {
  kIdentifier,  // bare word: names, keywords (case kept; matching is
                // case-insensitive)
  kNumber,      // integer or decimal literal, optional leading '-'
  kSymbol,      // one of ( ) , ; = * & . +
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  size_t offset = 0;  // byte offset in the statement, for error messages
};

// Splits a statement into tokens. Unknown characters are an error.
StatusOr<std::vector<Token>> Tokenize(const std::string& statement);

// Cursor over a token stream with the conveniences a recursive-descent
// parser needs. Keyword matching is ASCII case-insensitive.
class TokenCursor {
 public:
  explicit TokenCursor(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  const Token& Peek() const;
  Token Next();
  bool AtEnd() const;

  // True (and consumes) if the next token is an identifier equal to
  // `keyword` case-insensitively.
  bool TryKeyword(const std::string& keyword);
  // Error unless the next token is `keyword`.
  Status ExpectKeyword(const std::string& keyword);
  // Error unless the next token is the symbol `symbol`.
  Status ExpectSymbol(const std::string& symbol);
  bool TrySymbol(const std::string& symbol);
  // Consumes and returns an identifier.
  StatusOr<std::string> ExpectIdentifier();
  // Consumes and returns an integer literal.
  StatusOr<int64_t> ExpectInteger();
  // Consumes and returns a numeric literal (integer or decimal).
  StatusOr<double> ExpectNumber();

 private:
  std::vector<Token> tokens_;
  size_t position_ = 0;
};

}  // namespace mpfdb::parser

#endif  // MPFDB_PARSER_TOKENIZER_H_
