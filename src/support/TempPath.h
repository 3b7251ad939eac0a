//===- support/TempPath.h - Per-process scratch file paths ------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scratch trace files for tests, benches and tools.  A fixed name such as
/// /tmp/herd_corpus_test_mtrt.trace is shared by every process that uses
/// it: under `ctest -j` each gtest TEST runs as its own process, and two of
/// them writing the same file truncate each other's trace.  A TempPath
/// names a file that no other process or TempPath shares — the temporary
/// directory ($TMPDIR, else /tmp), a stem, the process id and a
/// per-process counter — and removes the file when it goes out of scope.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_SUPPORT_TEMPPATH_H
#define HERD_SUPPORT_TEMPPATH_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <utility>

namespace herd {

/// A unique scratch file path, removed on destruction.  Converts to the
/// `const std::string &` the trace APIs take.
class TempPath {
public:
  explicit TempPath(const std::string &Stem) {
    static std::atomic<uint32_t> Next{0};
    const char *Dir = std::getenv("TMPDIR");
    Path = std::string(Dir && *Dir ? Dir : "/tmp") + "/herd-" + Stem + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(Next++) +
           ".trace";
  }
  ~TempPath() {
    if (!Path.empty())
      std::remove(Path.c_str());
  }

  TempPath(TempPath &&Other) noexcept : Path(std::move(Other.Path)) {
    Other.Path.clear();
  }
  TempPath(const TempPath &) = delete;
  TempPath &operator=(const TempPath &) = delete;
  TempPath &operator=(TempPath &&) = delete;

  const std::string &str() const { return Path; }
  operator const std::string &() const { return Path; }

private:
  std::string Path;
};

} // namespace herd

#endif // HERD_SUPPORT_TEMPPATH_H
