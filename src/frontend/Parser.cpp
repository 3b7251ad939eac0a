//===- frontend/Parser.cpp - MiniJ recursive-descent parser ---------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"

// GCC 12's optimizer emits a well-known false-positive -Wrestrict for
// inlined std::string concatenations (GCC PR105651); the string code in
// this file is conventional.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

using namespace herd;

Parser::Parser(std::string_view Source, std::vector<Diagnostic> &Diags)
    : Tokens(Lexer::tokenizeAll(Source)), Diags(Diags) {}

Token Parser::consume() {
  Token T = cur();
  if (!T.is(TokenKind::EndOfFile))
    ++Index;
  return T;
}

bool Parser::accept(TokenKind K) {
  if (!check(K))
    return false;
  consume();
  return true;
}

void Parser::error(const std::string &Message) {
  // Past the nesting limit the parse is abandoned at end of file, and
  // every enclosing level would only report the missing closers.
  if (Abandoned)
    return;
  Diagnostic D;
  D.Line = cur().Line;
  D.Column = cur().Column;
  D.Message = Message;
  Diags.push_back(std::move(D));
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (accept(K))
    return true;
  std::string Message = "expected ";
  Message += tokenKindName(K);
  Message += ' ';
  Message += Context;
  Message += ", found ";
  Message += tokenKindName(cur().Kind);
  error(Message);
  return false;
}

bool Parser::tooDeep(unsigned Depth, const char *What) {
  if (Depth <= MaxNestingDepth)
    return false;
  std::string Message = What;
  Message += " nesting exceeds the limit of ";
  Message += std::to_string(MaxNestingDepth);
  Message += " levels";
  error(Message);
  Abandoned = true;
  Index = Tokens.size() - 1; // the EndOfFile token: every loop stops
  return true;
}

bool Parser::deepenExpr() {
  if (tooDeep(ExprDepth, "expression"))
    return false;
  ++ExprDepth;
  return true;
}

void Parser::recoverToStatementBoundary() {
  while (!check(TokenKind::EndOfFile) && !check(TokenKind::Semicolon) &&
         !check(TokenKind::RBrace))
    consume();
  accept(TokenKind::Semicolon);
}

ProgramAst Parser::parseProgram() {
  ProgramAst P;
  while (!check(TokenKind::EndOfFile)) {
    if (check(TokenKind::KwClass)) {
      P.Classes.push_back(parseClass());
      continue;
    }
    if (check(TokenKind::KwDef)) {
      MethodAst Main = parseMethod(/*IsStatic=*/true,
                                   /*IsSynchronized=*/false);
      if (Main.Name != "main")
        error("only 'main' may be declared at the top level");
      if (!Main.Params.empty())
        error("'main' takes no parameters");
      P.Main = std::make_unique<MethodAst>(std::move(Main));
      continue;
    }
    std::string Message = "expected 'class' or 'def main', found ";
    Message += tokenKindName(cur().Kind);
    error(Message);
    consume();
  }
  if (!P.Main && Diags.empty())
    error("program has no 'def main()'");
  return P;
}

ClassAst Parser::parseClass() {
  ClassAst C;
  C.Line = cur().Line;
  expect(TokenKind::KwClass, "to begin a class");
  if (check(TokenKind::Identifier))
    C.Name = std::string(consume().Text);
  else
    error("expected a class name");
  expect(TokenKind::LBrace, "after the class name");
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
    bool IsStatic = accept(TokenKind::KwStatic);
    bool IsSynchronized = accept(TokenKind::KwSynchronized);
    if (check(TokenKind::KwVar)) {
      if (IsSynchronized)
        error("fields cannot be synchronized");
      C.Fields.push_back(parseField(IsStatic));
    } else if (check(TokenKind::KwDef)) {
      C.Methods.push_back(parseMethod(IsStatic, IsSynchronized));
    } else {
      std::string Message = "expected 'var' or 'def' in class body, found ";
      Message += tokenKindName(cur().Kind);
      error(Message);
      recoverToStatementBoundary();
    }
  }
  expect(TokenKind::RBrace, "to close the class body");
  return C;
}

FieldAst Parser::parseField(bool IsStatic) {
  FieldAst F;
  F.IsStatic = IsStatic;
  F.Line = cur().Line;
  expect(TokenKind::KwVar, "to begin a field");
  if (check(TokenKind::Identifier))
    F.Name = std::string(consume().Text);
  else
    error("expected a field name");
  if (accept(TokenKind::Colon))
    F.Type = parseType();
  expect(TokenKind::Semicolon, "after the field declaration");
  return F;
}

MethodAst Parser::parseMethod(bool IsStatic, bool IsSynchronized) {
  MethodAst M;
  M.IsStatic = IsStatic;
  M.IsSynchronized = IsSynchronized;
  M.Line = cur().Line;
  expect(TokenKind::KwDef, "to begin a method");
  if (check(TokenKind::Identifier))
    M.Name = std::string(consume().Text);
  else
    error("expected a method name");
  expect(TokenKind::LParen, "after the method name");
  while (!check(TokenKind::RParen) && !check(TokenKind::EndOfFile)) {
    ParamAst Param;
    if (check(TokenKind::Identifier))
      Param.Name = std::string(consume().Text);
    else {
      error("expected a parameter name");
      break;
    }
    if (accept(TokenKind::Colon))
      Param.Type = parseType();
    M.Params.push_back(std::move(Param));
    if (!accept(TokenKind::Comma))
      break;
  }
  expect(TokenKind::RParen, "to close the parameter list");
  if (accept(TokenKind::Colon)) {
    M.RetType = parseType();
    M.HasRetType = true;
  }
  M.Body = parseBlock();
  return M;
}

TypeRef Parser::parseType() {
  TypeRef T;
  if (accept(TokenKind::KwInt)) {
    T.K = TypeRef::Kind::Int;
  } else if (check(TokenKind::Identifier)) {
    T.K = TypeRef::Kind::Class;
    T.ClassName = std::string(consume().Text);
  } else {
    error("expected a type ('int' or a class name)");
    return T;
  }
  if (accept(TokenKind::LBracket)) {
    expect(TokenKind::RBracket, "in array type");
    T.K = T.K == TypeRef::Kind::Int ? TypeRef::Kind::IntArray
                                    : TypeRef::Kind::ClassArray;
  }
  return T;
}

std::vector<StmtPtr> Parser::parseBlock() {
  std::vector<StmtPtr> Body;
  expect(TokenKind::LBrace, "to begin a block");
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
    StmtPtr S = parseStatement();
    if (S)
      Body.push_back(std::move(S));
  }
  expect(TokenKind::RBrace, "to close the block");
  return Body;
}

namespace {

/// Puts a nesting counter back to its value on entry when the parse call
/// that deepened it returns.
struct RestoreDepth {
  explicit RestoreDepth(unsigned &Depth) : Depth(Depth), Saved(Depth) {}
  ~RestoreDepth() { Depth = Saved; }
  unsigned &Depth;
  unsigned Saved;
};

} // namespace

StmtPtr Parser::parseStatement() {
  if (tooDeep(StmtDepth, "statement"))
    return nullptr;
  RestoreDepth Restore(StmtDepth);
  ++StmtDepth;
  uint32_t Line = cur().Line;

  if (accept(TokenKind::KwVar)) {
    auto S = std::make_unique<Stmt>(Stmt::Kind::VarDecl, Line);
    if (check(TokenKind::Identifier))
      S->Name = std::string(consume().Text);
    else
      error("expected a variable name after 'var'");
    if (accept(TokenKind::Colon)) {
      S->DeclType = parseType();
      S->HasDeclType = true;
    }
    if (accept(TokenKind::Assign))
      S->Value = parseExpr();
    expect(TokenKind::Semicolon, "after the variable declaration");
    return S;
  }

  if (accept(TokenKind::KwIf)) {
    auto S = std::make_unique<Stmt>(Stmt::Kind::If, Line);
    expect(TokenKind::LParen, "after 'if'");
    S->Target = parseExpr();
    expect(TokenKind::RParen, "after the condition");
    S->Body = parseBlock();
    if (accept(TokenKind::KwElse)) {
      if (check(TokenKind::KwIf)) {
        // `else if` chains: the else body is the nested if statement.
        StmtPtr Nested = parseStatement();
        if (Nested)
          S->ElseBody.push_back(std::move(Nested));
      } else {
        S->ElseBody = parseBlock();
      }
    }
    return S;
  }

  if (accept(TokenKind::KwWhile)) {
    auto S = std::make_unique<Stmt>(Stmt::Kind::While, Line);
    expect(TokenKind::LParen, "after 'while'");
    S->Target = parseExpr();
    expect(TokenKind::RParen, "after the condition");
    S->Body = parseBlock();
    return S;
  }

  if (accept(TokenKind::KwSynchronized)) {
    auto S = std::make_unique<Stmt>(Stmt::Kind::Synchronized, Line);
    expect(TokenKind::LParen, "after 'synchronized'");
    S->Target = parseExpr();
    expect(TokenKind::RParen, "after the monitor expression");
    S->Body = parseBlock();
    return S;
  }

  if (accept(TokenKind::KwReturn)) {
    auto S = std::make_unique<Stmt>(Stmt::Kind::Return, Line);
    if (!check(TokenKind::Semicolon))
      S->Target = parseExpr();
    expect(TokenKind::Semicolon, "after 'return'");
    return S;
  }

  if (accept(TokenKind::KwPrint)) {
    auto S = std::make_unique<Stmt>(Stmt::Kind::Print, Line);
    S->Target = parseExpr();
    expect(TokenKind::Semicolon, "after 'print'");
    return S;
  }

  if (accept(TokenKind::KwYield)) {
    auto S = std::make_unique<Stmt>(Stmt::Kind::Yield, Line);
    expect(TokenKind::Semicolon, "after 'yield'");
    return S;
  }

  if (accept(TokenKind::KwStart)) {
    auto S = std::make_unique<Stmt>(Stmt::Kind::Start, Line);
    S->Target = parseExpr();
    expect(TokenKind::Semicolon, "after 'start'");
    return S;
  }

  if (accept(TokenKind::KwJoin)) {
    auto S = std::make_unique<Stmt>(Stmt::Kind::Join, Line);
    S->Target = parseExpr();
    expect(TokenKind::Semicolon, "after 'join'");
    return S;
  }

  // Expression or assignment.
  ExprPtr E = parseExpr();
  if (!E) {
    recoverToStatementBoundary();
    return nullptr;
  }
  if (accept(TokenKind::Assign)) {
    auto S = std::make_unique<Stmt>(Stmt::Kind::Assign, Line);
    S->Target = std::move(E);
    S->Value = parseExpr();
    expect(TokenKind::Semicolon, "after the assignment");
    return S;
  }
  auto S = std::make_unique<Stmt>(Stmt::Kind::ExprStmt, Line);
  S->Target = std::move(E);
  expect(TokenKind::Semicolon, "after the expression");
  return S;
}

ExprPtr Parser::parseExpr() {
  // An expression nested in another starts one level deeper, and the
  // links its own chains add (deepenExpr) are released when it returns.
  RestoreDepth Restore(ExprDepth);
  if (!deepenExpr())
    return nullptr;
  return parseOr();
}

namespace {

ExprPtr makeBinary(std::string Op, ExprPtr L, ExprPtr R, uint32_t Line) {
  auto E = std::make_unique<Expr>(Expr::Kind::Binary, Line);
  E->OpText = std::move(Op);
  E->LHS = std::move(L);
  E->RHS = std::move(R);
  return E;
}

} // namespace

ExprPtr Parser::parseOr() {
  ExprPtr L = parseAnd();
  while (check(TokenKind::PipePipe)) {
    if (!deepenExpr())
      return nullptr;
    uint32_t Line = consume().Line;
    L = makeBinary("||", std::move(L), parseAnd(), Line);
  }
  return L;
}

ExprPtr Parser::parseAnd() {
  ExprPtr L = parseEquality();
  while (check(TokenKind::AmpAmp)) {
    if (!deepenExpr())
      return nullptr;
    uint32_t Line = consume().Line;
    L = makeBinary("&&", std::move(L), parseEquality(), Line);
  }
  return L;
}

ExprPtr Parser::parseEquality() {
  ExprPtr L = parseRelational();
  while (check(TokenKind::EqEq) || check(TokenKind::BangEq)) {
    if (!deepenExpr())
      return nullptr;
    Token T = consume();
    L = makeBinary(T.is(TokenKind::EqEq) ? "==" : "!=", std::move(L),
                   parseRelational(), T.Line);
  }
  return L;
}

ExprPtr Parser::parseRelational() {
  ExprPtr L = parseAdditive();
  while (check(TokenKind::Less) || check(TokenKind::LessEq) ||
         check(TokenKind::Greater) || check(TokenKind::GreaterEq)) {
    if (!deepenExpr())
      return nullptr;
    Token T = consume();
    const char *Op = T.is(TokenKind::Less)      ? "<"
                     : T.is(TokenKind::LessEq)  ? "<="
                     : T.is(TokenKind::Greater) ? ">"
                                                : ">=";
    L = makeBinary(Op, std::move(L), parseAdditive(), T.Line);
  }
  return L;
}

ExprPtr Parser::parseAdditive() {
  ExprPtr L = parseMultiplicative();
  while (check(TokenKind::Plus) || check(TokenKind::Minus)) {
    if (!deepenExpr())
      return nullptr;
    Token T = consume();
    L = makeBinary(T.is(TokenKind::Plus) ? "+" : "-", std::move(L),
                   parseMultiplicative(), T.Line);
  }
  return L;
}

ExprPtr Parser::parseMultiplicative() {
  ExprPtr L = parseUnary();
  while (check(TokenKind::Star) || check(TokenKind::Slash) ||
         check(TokenKind::Percent)) {
    if (!deepenExpr())
      return nullptr;
    Token T = consume();
    const char *Op = T.is(TokenKind::Star)    ? "*"
                     : T.is(TokenKind::Slash) ? "/"
                                              : "%";
    L = makeBinary(Op, std::move(L), parseUnary(), T.Line);
  }
  return L;
}

ExprPtr Parser::parseUnary() {
  if (check(TokenKind::Bang) || check(TokenKind::Minus)) {
    if (!deepenExpr())
      return nullptr;
    Token T = consume();
    auto E = std::make_unique<Expr>(Expr::Kind::Unary, T.Line);
    E->OpText = T.is(TokenKind::Bang) ? "!" : "-";
    E->LHS = parseUnary();
    return E;
  }
  return parsePostfix();
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  while (E && (check(TokenKind::Dot) || check(TokenKind::LBracket))) {
    if (!deepenExpr())
      return nullptr;
    if (accept(TokenKind::Dot)) {
      if (!check(TokenKind::Identifier)) {
        error("expected a member name after '.'");
        return E;
      }
      Token Member = consume();
      if (check(TokenKind::LParen)) {
        auto Call = std::make_unique<Expr>(Expr::Kind::Call, Member.Line);
        Call->Name = std::string(Member.Text);
        Call->LHS = std::move(E);
        Call->Args = parseArgs();
        E = std::move(Call);
      } else {
        auto Field = std::make_unique<Expr>(Expr::Kind::Field, Member.Line);
        Field->Name = std::string(Member.Text);
        Field->LHS = std::move(E);
        E = std::move(Field);
      }
      continue;
    }
    uint32_t Line = consume().Line; // the '['
    auto Idx = std::make_unique<Expr>(Expr::Kind::Index, Line);
    Idx->LHS = std::move(E);
    Idx->RHS = parseExpr();
    expect(TokenKind::RBracket, "to close the index");
    E = std::move(Idx);
  }
  return E;
}

std::vector<ExprPtr> Parser::parseArgs() {
  std::vector<ExprPtr> Args;
  expect(TokenKind::LParen, "to begin the argument list");
  if (!check(TokenKind::RParen)) {
    do {
      Args.push_back(parseExpr());
    } while (accept(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "to close the argument list");
  return Args;
}

ExprPtr Parser::parsePrimary() {
  uint32_t Line = cur().Line;

  if (check(TokenKind::Integer)) {
    Token T = consume();
    auto E = std::make_unique<Expr>(Expr::Kind::IntLit, Line);
    E->IntValue = T.IntValue;
    return E;
  }
  if (accept(TokenKind::KwNull))
    return std::make_unique<Expr>(Expr::Kind::NullLit, Line);
  if (accept(TokenKind::KwThis))
    return std::make_unique<Expr>(Expr::Kind::This, Line);

  if (accept(TokenKind::KwNew)) {
    if (accept(TokenKind::KwInt)) {
      expect(TokenKind::LBracket, "in 'new int[...]'");
      auto E = std::make_unique<Expr>(Expr::Kind::NewArray, Line);
      E->ElemType = TypeRef::intType();
      E->LHS = parseExpr();
      expect(TokenKind::RBracket, "to close the array size");
      return E;
    }
    if (!check(TokenKind::Identifier)) {
      error("expected a class name after 'new'");
      return nullptr;
    }
    Token Cls = consume();
    if (accept(TokenKind::LBracket)) {
      auto E = std::make_unique<Expr>(Expr::Kind::NewArray, Line);
      E->ElemType = TypeRef::classType(std::string(Cls.Text));
      E->LHS = parseExpr();
      expect(TokenKind::RBracket, "to close the array size");
      return E;
    }
    auto E = std::make_unique<Expr>(Expr::Kind::NewObject, Line);
    E->Name = std::string(Cls.Text);
    expect(TokenKind::LParen, "after the class name in 'new'");
    expect(TokenKind::RParen, "MiniJ classes have no constructors");
    return E;
  }

  if (check(TokenKind::Identifier)) {
    Token Name = consume();
    auto E = std::make_unique<Expr>(Expr::Kind::Name, Line);
    E->Name = std::string(Name.Text);
    return E;
  }

  if (accept(TokenKind::LParen)) {
    ExprPtr E = parseExpr();
    expect(TokenKind::RParen, "to close the parenthesized expression");
    return E;
  }

  std::string Message = "expected an expression, found ";
  Message += tokenKindName(cur().Kind);
  error(Message);
  consume();
  return nullptr;
}
