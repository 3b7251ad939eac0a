//===- frontend/Parser.h - MiniJ recursive-descent parser -------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniJ.  Grammar sketch:
///
///   program   := (classDecl | mainDecl)*
///   classDecl := "class" IDENT "{" (fieldDecl | methodDecl)* "}"
///   fieldDecl := ("static")? "var" IDENT (":" type)? ";"
///   methodDecl:= ("static")? ("synchronized")? "def" IDENT
///                "(" params ")" block
///   mainDecl  := "def" IDENT "(" ")" block          -- must be "main"
///   type      := "int" | IDENT | ("int"|IDENT) "[" "]"
///   stmt      := "var" IDENT (":" type)? ("=" expr)? ";"
///              | lvalue "=" expr ";"
///              | "if" "(" expr ")" block ("else" (block | ifStmt))?
///              | "while" "(" expr ")" block
///              | "synchronized" "(" expr ")" block
///              | "return" (expr)? ";"  | "print" expr ";"
///              | "yield" ";"  | "start" expr ";"  | "join" expr ";"
///              | expr ";"
///   expr      := usual precedence: || && (==|!=) (<|<=|>|>=) (+|-)
///                (*|/|%) unary(! -) postfix
///   postfix   := primary ( "." IDENT ("(" args ")")? | "[" expr "]" )*
///   primary   := INT | "null" | "this" | IDENT ("(" args ")")?
///              | "new" IDENT "(" ")" | "new" type "[" expr "]"
///              | "(" expr ")"
///
/// Notes: `&&` and `||` are lowered eagerly (both sides evaluate); `.length`
/// on an array is the length operator.  Errors are collected with panic
/// recovery to the next ';' or '}'.
///
/// Nesting is bounded (Parser::MaxNestingDepth), so no source text can
/// exhaust the stack of the parser, of lowering, or of the AST's
/// destructors: past the limit the parse stops with one diagnostic and
/// lowering never runs.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_FRONTEND_PARSER_H
#define HERD_FRONTEND_PARSER_H

#include "frontend/Ast.h"
#include "frontend/Token.h"

#include <string_view>
#include <vector>

namespace herd {

class Parser {
public:
  /// The deepest nesting accepted, for expressions and statements alike.
  /// A statement's depth is the number of statements enclosing it (an
  /// `if`, `while` or `synchronized` body, or an `else if`).  An
  /// expression's depth is the number of expressions enclosing it
  /// (parentheses, indices, arguments, array sizes, unary operands) plus
  /// the operator and postfix links already parsed in them, each of which
  /// deepens the AST by one: `((1))` and `1 + 1 + 1` both reach depth 2.
  static constexpr unsigned MaxNestingDepth = 256;

  Parser(std::string_view Source, std::vector<Diagnostic> &Diags);

  /// Parses a whole program; check \p Diags for errors afterwards.
  ProgramAst parseProgram();

private:
  const Token &cur() const { return Tokens[Index]; }
  const Token &peekAhead(size_t N = 1) const {
    return Tokens[std::min(Index + N, Tokens.size() - 1)];
  }
  Token consume();
  bool check(TokenKind K) const { return cur().is(K); }
  bool accept(TokenKind K);
  bool expect(TokenKind K, const char *Context);
  void error(const std::string &Message);
  void recoverToStatementBoundary();
  /// True when a construct at nesting depth \p Depth is past
  /// MaxNestingDepth; the first time, reports \p What's nesting and
  /// abandons the parse (skips to the end, silences later diagnostics).
  bool tooDeep(unsigned Depth, const char *What);
  /// Deepens the current expression by one level, or returns false past
  /// the limit.  The level is held until the enclosing parseExpr returns.
  bool deepenExpr();

  ClassAst parseClass();
  FieldAst parseField(bool IsStatic);
  MethodAst parseMethod(bool IsStatic, bool IsSynchronized);
  TypeRef parseType();
  std::vector<StmtPtr> parseBlock();
  StmtPtr parseStatement();
  ExprPtr parseExpr();
  ExprPtr parseOr();
  ExprPtr parseAnd();
  ExprPtr parseEquality();
  ExprPtr parseRelational();
  ExprPtr parseAdditive();
  ExprPtr parseMultiplicative();
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();
  std::vector<ExprPtr> parseArgs();

  std::vector<Token> Tokens;
  size_t Index = 0;
  std::vector<Diagnostic> &Diags;
  unsigned ExprDepth = 0; ///< see MaxNestingDepth
  unsigned StmtDepth = 0;
  bool Abandoned = false; ///< nesting limit hit; the parse is over
};

} // namespace herd

#endif // HERD_FRONTEND_PARSER_H
