//===- tests/frontend_test.cpp - MiniJ frontend tests ---------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the MiniJ surface language: lexing, parsing (including error
/// recovery), the type checks in lowering, and end-to-end compile+run
/// semantics, culminating in race detection on a MiniJ source program.
///
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "herd/Pipeline.h"
#include "runtime/Interpreter.h"

#include <gtest/gtest.h>

using namespace herd;

namespace {

std::vector<int64_t> compileAndRun(std::string_view Source,
                                   uint64_t Seed = 1) {
  CompileResult R = compileMiniJ(Source);
  EXPECT_TRUE(R.Ok) << (R.Diags.empty() ? "?" : R.Diags[0].str());
  if (!R.Ok)
    return {};
  InterpOptions Opts;
  Opts.Seed = Seed;
  Interpreter Interp(R.P, nullptr, Opts);
  InterpResult Run = Interp.run();
  EXPECT_TRUE(Run.Ok) << Run.Error;
  return Run.Output;
}

std::string firstErrorOf(std::string_view Source) {
  CompileResult R = compileMiniJ(Source);
  EXPECT_FALSE(R.Ok);
  return R.Diags.empty() ? std::string() : R.Diags[0].Message;
}

//===----------------------------------------------------------------------===
// Lexer.
//===----------------------------------------------------------------------===

TEST(LexerTest, TokenStream) {
  auto Tokens = Lexer::tokenizeAll("class Foo { var x; } // trailing");
  ASSERT_EQ(Tokens.size(), 8u); // class Foo { var x ; } EOF
  EXPECT_EQ(Tokens[0].Kind, TokenKind::KwClass);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[1].Text, "Foo");
  EXPECT_EQ(Tokens[7].Kind, TokenKind::EndOfFile);
}

TEST(LexerTest, OperatorsAndLiterals) {
  auto Tokens = Lexer::tokenizeAll("a == 42 && b <= 7 || !c");
  EXPECT_EQ(Tokens[1].Kind, TokenKind::EqEq);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Integer);
  EXPECT_EQ(Tokens[2].IntValue, 42);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::AmpAmp);
  EXPECT_EQ(Tokens[5].Kind, TokenKind::LessEq);
  EXPECT_EQ(Tokens[7].Kind, TokenKind::PipePipe);
  EXPECT_EQ(Tokens[8].Kind, TokenKind::Bang);
}

TEST(LexerTest, LineAndColumnTracking) {
  auto Tokens = Lexer::tokenizeAll("a\n  b");
  EXPECT_EQ(Tokens[0].Line, 1u);
  EXPECT_EQ(Tokens[1].Line, 2u);
  EXPECT_EQ(Tokens[1].Column, 3u);
}

TEST(LexerTest, InvalidCharacterBecomesErrorToken) {
  auto Tokens = Lexer::tokenizeAll("a @ b");
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Error);
}

//===----------------------------------------------------------------------===
// End-to-end compile + run.
//===----------------------------------------------------------------------===

TEST(FrontendTest, HelloArithmetic) {
  auto Out = compileAndRun(R"(
    def main() {
      var x = 6;
      var y = 7;
      print x * y;
      print (x + y) % 5;
      print -x;
      print !0;
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{42, 3, -6, 1}));
}

TEST(FrontendTest, ElseIfChains) {
  auto Out = compileAndRun(R"(
    def main() {
      var i = 0;
      while (i < 5) {
        if (i == 0) { print 100; }
        else if (i == 1) { print 200; }
        else if (i == 2) { print 300; }
        else { print i; }
        i = i + 1;
      }
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{100, 200, 300, 3, 4}));
}

TEST(FrontendTest, ControlFlow) {
  auto Out = compileAndRun(R"(
    def main() {
      var i = 0;
      var sum = 0;
      while (i < 10) {
        if (i % 2 == 0) { sum = sum + i; } else { sum = sum - 1; }
        i = i + 1;
      }
      print sum;
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{15})); // 0+2+4+6+8 - 5
}

TEST(FrontendTest, ClassesFieldsAndMethods) {
  auto Out = compileAndRun(R"(
    class Counter {
      var count: int;
      def bump(by: int): int {
        count = count + by;
        return count;
      }
    }
    def main() {
      var c: Counter = new Counter();
      c.bump(5);
      c.bump(7);
      print c.count;
      print c.bump(0);
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{12, 12}));
}

TEST(FrontendTest, StaticFieldsAndMethods) {
  auto Out = compileAndRun(R"(
    class G {
      static var total: int;
      static def add(n: int) {
        G.total = G.total + n;
      }
    }
    def main() {
      G.add(3);
      G.add(4);
      print G.total;
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{7}));
}

TEST(FrontendTest, ArraysAndLength) {
  auto Out = compileAndRun(R"(
    def main() {
      var a: int[] = new int[5];
      var i = 0;
      while (i < a.length) {
        a[i] = i * i;
        i = i + 1;
      }
      print a[3];
      print a.length;
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{9, 5}));
}

TEST(FrontendTest, ObjectArraysAndNull) {
  auto Out = compileAndRun(R"(
    class Node { var value: int; var next: Node; }
    def main() {
      var nodes: Node[] = new Node[3];
      var head: Node = null;
      var i = 0;
      while (i < 3) {
        var n: Node = new Node();
        n.value = i + 1;
        n.next = head;
        head = n;
        nodes[i] = n;
        i = i + 1;
      }
      var sum = 0;
      var cur: Node = head;
      while (cur != null) {
        sum = sum + cur.value;
        cur = cur.next;
      }
      print sum;
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{6}));
}

TEST(FrontendTest, ImplicitThisFieldAccess) {
  auto Out = compileAndRun(R"(
    class Acc {
      var total: int;
      def add(n: int) { total = total + n; }
      def get(): int { return total; }
    }
    def main() {
      var a: Acc = new Acc();
      a.add(2);
      a.add(3);
      print a.get();
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{5}));
}

TEST(FrontendTest, ThreadsAndMonitors) {
  auto Out = compileAndRun(R"(
    class Shared { var count: int; }
    class Worker {
      var target: Shared;
      def run() {
        var i = 0;
        while (i < 40) {
          synchronized (target) {
            target.count = target.count + 1;
          }
          i = i + 1;
        }
      }
    }
    def main() {
      var s: Shared = new Shared();
      var w1: Worker = new Worker();
      var w2: Worker = new Worker();
      w1.target = s;
      w2.target = s;
      start w1;
      start w2;
      join w1;
      join w2;
      print s.count;
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{80}));
}

TEST(FrontendTest, SynchronizedMethodsWork) {
  auto Out = compileAndRun(R"(
    class Box {
      var v: int;
      synchronized def bump() { v = v + 1; }
    }
    def main() {
      var b: Box = new Box();
      b.bump();
      b.bump();
      print b.v;
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{2}));
}

TEST(FrontendTest, RaceDetectedInMiniJSource) {
  // The canonical buggy counter, written in MiniJ, through the whole
  // pipeline: compile -> static analysis -> instrument -> run -> report.
  CompileResult R = compileMiniJ(R"(
    class Shared { var count: int; }
    class Worker {
      var target: Shared;
      def run() {
        var i = 0;
        while (i < 30) {
          target.count = target.count + 1;   // no lock!
          i = i + 1;
        }
      }
    }
    def main() {
      var s: Shared = new Shared();
      var w1: Worker = new Worker();
      var w2: Worker = new Worker();
      w1.target = s;
      w2.target = s;
      start w1;
      start w2;
      join w1;
      join w2;
      print s.count;
    }
  )");
  ASSERT_TRUE(R.Ok) << (R.Diags.empty() ? "?" : R.Diags[0].str());
  PipelineResult Res = runPipeline(R.P, ToolConfig::noPeeling());
  ASSERT_TRUE(Res.Run.Ok) << Res.Run.Error;
  EXPECT_EQ(Res.Reports.countDistinctLocations(), 1u);
  // The report carries the source line of the racing statement.
  ASSERT_FALSE(Res.FormattedRaces.empty());
  EXPECT_NE(Res.FormattedRaces[0].find("L8"), std::string::npos)
      << Res.FormattedRaces[0];
}

TEST(FrontendTest, OutOfOrderReleaseKeepsTheRace) {
  // synchronized (y) releases whatever y names when the block ends, so W1
  // swaps its locals and releases its outer lock a while still holding b.
  // Its write d.f = 2 then happens under {b} and races with W2's write
  // under {a}; the access cache must not keep proving it redundant by the
  // entry d.f = 1 made under {a, b}.
  CompileResult R = compileMiniJ(R"(
    class D { var f: int; }
    class L { var pad: int; }
    class W1 {
      var d: D; var a: L; var b: L;
      def run() {
        var x: L = a;
        var y: L = b;
        synchronized (x) {
          synchronized (y) {
            d.f = 1;
            var t: L = x;
            x = y;
            y = t;
          }
          d.f = 2;
        }
      }
    }
    class W2 {
      var d: D; var a: L;
      def run() { synchronized (a) { d.f = 3; } }
    }
    def main() {
      var d: D = new D();
      d.f = 0;
      var a: L = new L();
      var b: L = new L();
      var w1: W1 = new W1();
      w1.d = d; w1.a = a; w1.b = b;
      var w2: W2 = new W2();
      w2.d = d; w2.a = a;
      start w1;
      start w2;
    }
  )");
  ASSERT_TRUE(R.Ok) << (R.Diags.empty() ? "?" : R.Diags[0].str());
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ToolConfig NoCache = ToolConfig::noCache();
    NoCache.Seed = Seed;
    PipelineResult Want = runPipeline(R.P, NoCache);
    ASSERT_TRUE(Want.Run.Ok) << Want.Run.Error;
    ASSERT_EQ(Want.Reports.countDistinctLocations(), 1u) << "seed " << Seed;
    for (uint32_t Shards : {0u, 2u}) {
      for (DispatchMode Dispatch :
           {DispatchMode::Threaded, DispatchMode::Switch}) {
        ToolConfig Full = ToolConfig::full();
        Full.Seed = Seed;
        Full.Shards = Shards;
        Full.Dispatch = Dispatch;
        PipelineResult Got = runPipeline(R.P, Full);
        ASSERT_TRUE(Got.Run.Ok) << Got.Run.Error;
        EXPECT_EQ(Got.Reports.reportedLocations(),
                  Want.Reports.reportedLocations())
            << "seed " << Seed << ", " << Shards << " shards, "
            << (Dispatch == DispatchMode::Threaded ? "threaded" : "switch");
      }
    }
  }
}

TEST(FrontendTest, DeterministicOutputMatchesBuilderSemantics) {
  for (uint64_t Seed : {1u, 5u, 9u}) {
    auto A = compileAndRun("def main() { print 1 + 2 * 3; }", Seed);
    EXPECT_EQ(A, (std::vector<int64_t>{7}));
  }
}

TEST(FrontendTest, NullSemantics) {
  // null is MiniJ's zero value: unset fields/array slots compare equal to
  // it, and assigning null clears a reference.
  auto Out = compileAndRun(R"(
    class Node { var next: Node; }
    def main() {
      var nodes: Node[] = new Node[2];
      print nodes[0] == null;      // unset slot: 1
      var n: Node = new Node();
      print n == null;             // 0
      print n.next == null;        // unset field: 1
      nodes[0] = n;
      print nodes[0] == null;      // 0
      nodes[0] = null;
      print nodes[0] == null;      // 1
    }
  )");
  EXPECT_EQ(Out, (std::vector<int64_t>{1, 0, 1, 0, 1}));
}

TEST(FrontendTest, DereferencingNullHaltsTheProgram) {
  CompileResult R = compileMiniJ(R"(
    class Node { var v: int; }
    def main() {
      var n: Node = null;
      print n.v;
    }
  )");
  ASSERT_TRUE(R.Ok);
  Interpreter Interp(R.P, nullptr, InterpOptions{});
  InterpResult Run = Interp.run();
  EXPECT_FALSE(Run.Ok);
}

//===----------------------------------------------------------------------===
// Diagnostics.
//===----------------------------------------------------------------------===

TEST(FrontendDiagTest, MissingSemicolon) {
  std::string E = firstErrorOf("def main() { print 1 }");
  EXPECT_NE(E.find("';'"), std::string::npos);
}

TEST(FrontendDiagTest, UnknownVariable) {
  std::string E = firstErrorOf("def main() { print nope; }");
  EXPECT_NE(E.find("unknown name"), std::string::npos);
}

TEST(FrontendDiagTest, UnknownClassInType) {
  std::string E = firstErrorOf("def main() { var x: Nope = null; }");
  EXPECT_NE(E.find("unknown class"), std::string::npos);
}

TEST(FrontendDiagTest, CallOnInt) {
  std::string E = firstErrorOf("def main() { var x = 1; x.foo(); }");
  EXPECT_NE(E.find("non-object"), std::string::npos);
}

TEST(FrontendDiagTest, ArityMismatch) {
  std::string E = firstErrorOf(R"(
    class A { def f(x: int) { } }
    def main() { var a: A = new A(); a.f(1, 2); }
  )");
  EXPECT_NE(E.find("argument"), std::string::npos);
}

TEST(FrontendDiagTest, TypeMismatchOnAssign) {
  std::string E = firstErrorOf(R"(
    class A { }
    def main() { var x: int = 0; var a: A = new A(); x = a; }
  )");
  EXPECT_NE(E.find("cannot assign"), std::string::npos);
}

TEST(FrontendDiagTest, ReturnInsideSynchronizedRejected) {
  std::string E = firstErrorOf(R"(
    class A {
      def f(): int {
        synchronized (this) { return 1; }
      }
    }
    def main() { var a: A = new A(); print a.f(); }
  )");
  EXPECT_NE(E.find("synchronized"), std::string::npos);
}

TEST(FrontendDiagTest, UnreachableCodeRejected) {
  std::string E = firstErrorOf(R"(
    def main() {
      return;
      print 1;
    }
  )");
  EXPECT_NE(E.find("unreachable"), std::string::npos);
}

TEST(FrontendDiagTest, TopLevelMustBeMain) {
  std::string E = firstErrorOf("def helper() { }");
  EXPECT_NE(E.find("main"), std::string::npos);
}

TEST(FrontendDiagTest, StartOnNonThreadClass) {
  std::string E = firstErrorOf(R"(
    class NotAThread { }
    def main() { var x: NotAThread = new NotAThread(); start x; }
  )");
  EXPECT_NE(E.find("run()"), std::string::npos);
}

TEST(FrontendDiagTest, DuplicateClassRejected) {
  std::string E = firstErrorOf("class A { } class A { } def main() { }");
  EXPECT_NE(E.find("duplicate class"), std::string::npos);
}

TEST(FrontendDiagTest, InstanceFieldFromStaticMethodRejected) {
  std::string E = firstErrorOf(R"(
    class A {
      var x: int;
      static def f() { x = 1; }
    }
    def main() { A.f(); }
  )");
  EXPECT_NE(E.find("static"), std::string::npos);
}

TEST(FrontendDiagTest, ErrorsCarryLineNumbers) {
  CompileResult R = compileMiniJ("def main() {\n  print nope;\n}");
  ASSERT_FALSE(R.Ok);
  ASSERT_FALSE(R.Diags.empty());
  EXPECT_EQ(R.Diags[0].Line, 2u);
}

//===----------------------------------------------------------------------===
// Nesting limit (Parser::MaxNestingDepth).
//===----------------------------------------------------------------------===

std::string repeat(std::string_view Piece, unsigned Count) {
  std::string Out;
  Out.reserve(Piece.size() * Count);
  for (unsigned I = 0; I != Count; ++I)
    Out += Piece;
  return Out;
}

/// `var x: int = ((...1...));` with \p Depth parentheses.
std::string nestedParens(unsigned Depth) {
  return "def main() { var x: int = " + repeat("(", Depth) + "1" +
         repeat(")", Depth) + "; print x; }";
}

/// \p Depth nested `if` blocks around one print.
std::string nestedIfs(unsigned Depth) {
  return "def main() { " + repeat("if (1) { ", Depth) + "print 1; " +
         repeat("} ", Depth) + "}";
}

constexpr unsigned Limit = Parser::MaxNestingDepth;

TEST(FrontendDiagTest, NestingAtTheLimitCompiles) {
  EXPECT_EQ(compileAndRun(nestedParens(Limit)), std::vector<int64_t>{1});
  EXPECT_EQ(compileAndRun(nestedIfs(Limit)), std::vector<int64_t>{1});
}

TEST(FrontendDiagTest, NestingPastTheLimitIsOneDiagnostic) {
  // One past the limit and far past it: one diagnostic at the construct
  // that crossed the limit, no cascade of missing closers, and lowering
  // never runs.  At 100,000 levels the parser used to overflow the stack.
  for (unsigned Depth : {Limit + 1, 100000u}) {
    SCOPED_TRACE(Depth);
    CompileResult Parens = compileMiniJ(nestedParens(Depth));
    EXPECT_FALSE(Parens.Ok);
    ASSERT_EQ(Parens.Diags.size(), 1u);
    EXPECT_EQ(Parens.Diags[0].Message,
              "expression nesting exceeds the limit of 256 levels");
    // Reported where the expression the 257th '(' opens begins (the
    // first '(' is at column 27).
    EXPECT_EQ(Parens.Diags[0].Column, 27u + Limit + 1);

    CompileResult Ifs = compileMiniJ(nestedIfs(Depth));
    EXPECT_FALSE(Ifs.Ok);
    ASSERT_EQ(Ifs.Diags.size(), 1u);
    EXPECT_EQ(Ifs.Diags[0].Message,
              "statement nesting exceeds the limit of 256 levels");
  }
}

TEST(FrontendDiagTest, EveryNestingShapeIsBounded) {
  // Chains deepen the AST by one per link even where the parser loops
  // instead of recursing, and lowering and the AST's destructors recurse
  // over that depth: every shape is cut at the same limit.
  const unsigned Deep = 100000;
  std::string Sum = "def main() { var x: int = 1" + repeat(" + 1", Deep) +
                    "; print x; }";
  std::string Negations =
      "def main() { var x: int = " + repeat("-", Deep) + "1; print x; }";
  std::string ElseIfs = "def main() { var x: int = 1; if (x) { print 1; }" +
                        repeat(" else if (x) { print 2; }", Deep) + " }";
  std::string Fields = "class Node { var next: Node; }\n"
                       "def main() { var n: Node = new Node(); print n" +
                       repeat(".next", Deep) + "; }";
  std::string Indices = "def main() { var a: int[] = new int[1]; print a[" +
                        repeat("a[", Deep) + "0" + repeat("]", Deep) +
                        "]; }";
  for (const std::string *Source :
       {&Sum, &Negations, &ElseIfs, &Fields, &Indices}) {
    CompileResult R = compileMiniJ(*Source);
    EXPECT_FALSE(R.Ok);
    ASSERT_EQ(R.Diags.size(), 1u);
    EXPECT_NE(R.Diags[0].Message.find("nesting exceeds the limit"),
              std::string::npos)
        << R.Diags[0].Message;
  }
  // A chain at the limit still compiles: 256 links.
  EXPECT_EQ(compileAndRun("def main() { var x: int = 1" +
                          repeat(" + 1", Limit) + "; print x; }"),
            std::vector<int64_t>{int64_t(Limit) + 1});
}

} // namespace
