//===- support/TextLines.h - Lines of text in stable blocks -----*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An append-only list of text lines whose characters live in a few large
/// blocks instead of one heap string per line.  A saturated replay formats
/// 65,536 race lines of about 130 characters; as strings each took a
/// 144-byte heap chunk plus a 32-byte header, and here each takes its
/// characters plus one 16-byte view.
///
/// Blocks never move: the first holds 4 KiB, each next one twice the last
/// up to 64 KiB, and a line that would not fit a block of that size gets a
/// block sized to it.  So the std::string_view of a line stays valid for
/// as long as the list that holds it, across moves of the list too.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_SUPPORT_TEXTLINES_H
#define HERD_SUPPORT_TEXTLINES_H

#include <algorithm>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace herd {

/// Append-only lines of text, read as string views.
class TextLines {
public:
  using const_iterator = std::vector<std::string_view>::const_iterator;

  static constexpr size_t FirstBlockBytes = size_t(4) << 10;
  static constexpr size_t MaxBlockBytes = size_t(64) << 10;

  TextLines() = default;

  /// A deep copy: the copy's views point into blocks of its own.
  TextLines(const TextLines &Other) {
    Lines.reserve(Other.size());
    for (std::string_view Line : Other)
      push_back(Line);
  }
  TextLines &operator=(const TextLines &Other) {
    if (this != &Other)
      *this = TextLines(Other);
    return *this;
  }

  /// Moves keep every view valid: the blocks change owner, not place.
  TextLines(TextLines &&Other) noexcept
      : Blocks(std::move(Other.Blocks)), Lines(std::move(Other.Lines)),
        At(std::exchange(Other.At, nullptr)),
        BlockEnd(std::exchange(Other.BlockEnd, nullptr)),
        NextBlockBytes(std::exchange(Other.NextBlockBytes, FirstBlockBytes)) {
  }
  TextLines &operator=(TextLines &&Other) noexcept {
    Blocks = std::move(Other.Blocks);
    Lines = std::move(Other.Lines);
    At = std::exchange(Other.At, nullptr);
    BlockEnd = std::exchange(Other.BlockEnd, nullptr);
    NextBlockBytes = std::exchange(Other.NextBlockBytes, FirstBlockBytes);
    return *this;
  }

  /// Appends a copy of \p Line.
  void push_back(std::string_view Line) {
    if (size_t(BlockEnd - At) < Line.size())
      newBlock(Line.size());
    if (!Line.empty()) // a default view has no data to copy from
      std::memcpy(At, Line.data(), Line.size());
    Lines.emplace_back(At, Line.size());
    At += Line.size();
  }

  /// Makes room for \p Count views without regrowing the view list.
  void reserve(size_t Count) { Lines.reserve(Count); }

  size_t size() const { return Lines.size(); }
  bool empty() const { return Lines.empty(); }
  std::string_view operator[](size_t I) const { return Lines[I]; }
  const_iterator begin() const { return Lines.begin(); }
  const_iterator end() const { return Lines.end(); }

  /// Line by line, by content.
  friend bool operator==(const TextLines &A, const TextLines &B) {
    return A.Lines == B.Lines;
  }

private:
  /// Starts a block with room for at least \p Bound characters.
  void newBlock(size_t Bound) {
    size_t Bytes = std::max(NextBlockBytes, Bound);
    NextBlockBytes = std::min(NextBlockBytes * 2, MaxBlockBytes);
    Blocks.push_back(std::make_unique_for_overwrite<char[]>(Bytes));
    At = Blocks.back().get();
    BlockEnd = At + Bytes;
  }

  std::vector<std::unique_ptr<char[]>> Blocks;
  std::vector<std::string_view> Lines;
  char *At = nullptr;       ///< where the next line starts
  char *BlockEnd = nullptr; ///< the end of At's block
  size_t NextBlockBytes = FirstBlockBytes;
};

} // namespace herd

#endif // HERD_SUPPORT_TEXTLINES_H
