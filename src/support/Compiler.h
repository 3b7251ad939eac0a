//===- support/Compiler.h - Common compiler support macros ------*- C++ -*-==//
//
// Part of the HERD project: a reproduction of Choi et al., "Efficient and
// Precise Datarace Detection for Multithreaded Object-Oriented Programs"
// (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small compiler-support macros used across the project: an unreachable
/// marker, a likely/unlikely hint pair and a code-alignment pin.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_SUPPORT_COMPILER_H
#define HERD_SUPPORT_COMPILER_H

#include <cassert>
#include <cstdio>
#include <cstdlib>

/// Marks a point in the code that must never be reached.  Prints the message
/// and aborts in all build modes; a race detector that silently continues
/// past a broken invariant would produce wrong reports.
#define HERD_UNREACHABLE(MSG)                                                  \
  do {                                                                         \
    std::fprintf(stderr, "herd: unreachable executed at %s:%d: %s\n",          \
                 __FILE__, __LINE__, (MSG));                                   \
    std::abort();                                                              \
  } while (false)

#if defined(__GNUC__) || defined(__clang__)
#define HERD_LIKELY(X) __builtin_expect(!!(X), 1)
#define HERD_UNLIKELY(X) __builtin_expect(!!(X), 0)
#else
#define HERD_LIKELY(X) (X)
#define HERD_UNLIKELY(X) (X)
#endif

/// Starts a function on a 64-byte boundary.  The threaded dispatch loop
/// carries it so that its handlers keep their offsets within cache lines
/// when code elsewhere in the binary grows or shrinks: the loop's start
/// offset alone moves herdbench's `tsp-live` slowdown by about 1%
/// (docs/PERFORMANCE.md, "Placement of the dispatch loop").
#if defined(__GNUC__) || defined(__clang__)
#define HERD_ALIGN_HOT_CODE __attribute__((aligned(64)))
#else
#define HERD_ALIGN_HOT_CODE
#endif

#endif // HERD_SUPPORT_COMPILER_H
