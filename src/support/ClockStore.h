//===- support/ClockStore.h - Pooled vector-clock storage -------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pooled store of fixed-width vector clocks addressed by dense 32-bit
/// handles, built for the epoch detector (docs/DETECTORS.md).  All rows
/// live in one contiguous uint64_t buffer with a power-of-two stride, so
/// the per-event hot path touches cache-friendly flat memory and the
/// steady state never calls the global allocator: allocating a row is a
/// free-list pop (or a bump inside reserved storage), releasing one is a
/// free-list push, and joins/orderings are straight-line loops over one
/// row.
///
/// The slot width (threads per clock) grows by rebuilding the buffer with
/// a doubled stride; handles are preserved across rebuilds, so holders
/// never need to re-index.  `reserve()` pre-commits both dimensions from
/// DetectorPlan capacity hints.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_SUPPORT_CLOCKSTORE_H
#define HERD_SUPPORT_CLOCKSTORE_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace herd {

/// A pool of vector-clock rows with a shared, growable slot width.
class ClockStore {
public:
  /// Sentinel for "no row"; never returned by alloc().
  static constexpr uint32_t None = 0xFFFFFFFF;

  explicit ClockStore(uint32_t InitialSlots = 16)
      : Stride(slotCapacityFor(InitialSlots)) {}

  /// Current slot capacity (the stride every row shares).
  uint32_t slots() const { return Stride; }

  /// Rows handed out fresh (never through the free list).
  uint64_t freshAllocs() const { return FreshAllocs; }

  /// Rows recycled through the free list.
  uint64_t reusedAllocs() const { return ReusedAllocs; }

  /// Allocates a zeroed row and returns its handle.
  uint32_t alloc() {
    if (!FreeList.empty()) {
      uint32_t Handle = FreeList.back();
      FreeList.pop_back();
      std::fill_n(rowPtr(Handle), Stride, uint64_t(0));
      ++ReusedAllocs;
      return Handle;
    }
    uint32_t Handle = Rows++;
    Buf.resize(size_t(Rows) * Stride, 0);
    ++FreshAllocs;
    return Handle;
  }

  /// Returns \p Handle's row to the free list.  The caller must not use
  /// the handle again until alloc() hands it back out.
  void release(uint32_t Handle) {
    assert(Handle < Rows && "release of a handle never allocated");
    FreeList.push_back(Handle);
  }

  uint64_t get(uint32_t Handle, uint32_t Slot) const {
    assert(Handle < Rows && "clock handle out of range");
    return Slot < Stride ? Buf[size_t(Handle) * Stride + Slot] : 0;
  }

  void set(uint32_t Handle, uint32_t Slot, uint64_t Value) {
    assert(Handle < Rows && "clock handle out of range");
    assert(Slot < Stride && "slot beyond stride; call ensureSlots first");
    Buf[size_t(Handle) * Stride + Slot] = Value;
  }

  /// Copies \p Src's row over \p Dst's.
  void assign(uint32_t Dst, uint32_t Src) {
    assert(Dst < Rows && Src < Rows && "clock handle out of range");
    std::copy_n(rowPtr(Src), Stride, rowPtr(Dst));
  }

  /// Pointwise maximum: Dst = max(Dst, Src).
  void joinInto(uint32_t Dst, uint32_t Src) {
    assert(Dst < Rows && Src < Rows && "clock handle out of range");
    const uint64_t *S = rowPtr(Src);
    uint64_t *D = rowPtr(Dst);
    for (uint32_t I = 0; I != Stride; ++I)
      D[I] = std::max(D[I], S[I]);
  }

  /// True when row \p A is pointwise <= row \p B ("happened before or
  /// equal").
  bool orderedBefore(uint32_t A, uint32_t B) const {
    assert(A < Rows && B < Rows && "clock handle out of range");
    const uint64_t *RA = rowPtr(A), *RB = rowPtr(B);
    for (uint32_t I = 0; I != Stride; ++I)
      if (RA[I] > RB[I])
        return false;
    return true;
  }

  /// Grows the shared slot width to hold \p SlotCount slots, rebuilding
  /// the buffer with a doubled (power-of-two) stride.  Handles survive;
  /// new slots read as zero.  No-op when the stride already suffices.
  void ensureSlots(uint32_t SlotCount) {
    if (SlotCount <= Stride)
      return;
    uint32_t NewStride = slotCapacityFor(SlotCount);
    std::vector<uint64_t> NewBuf(size_t(Rows) * NewStride, 0);
    for (uint32_t R = 0; R != Rows; ++R)
      std::copy_n(Buf.data() + size_t(R) * Stride, Stride,
                  NewBuf.data() + size_t(R) * NewStride);
    Buf = std::move(NewBuf);
    Stride = NewStride;
  }

  /// Pre-commits storage for \p ExpectedRows rows of \p ExpectedSlots
  /// slots so that many alloc() calls proceed without touching the global
  /// allocator.  Hints, not limits: the store still grows on demand.
  void reserve(size_t ExpectedRows, uint32_t ExpectedSlots) {
    ensureSlots(ExpectedSlots);
    Buf.reserve(std::max(Buf.size(), ExpectedRows * size_t(Stride)));
    FreeList.reserve(std::max(FreeList.capacity(), ExpectedRows));
  }

  /// Smallest power-of-two stride holding \p Slots slots (16 floor).
  static uint32_t slotCapacityFor(uint32_t Slots) {
    uint32_t Capacity = 16;
    while (Capacity < Slots)
      Capacity *= 2;
    return Capacity;
  }

private:
  uint64_t *rowPtr(uint32_t Handle) {
    return Buf.data() + size_t(Handle) * Stride;
  }
  const uint64_t *rowPtr(uint32_t Handle) const {
    return Buf.data() + size_t(Handle) * Stride;
  }

  std::vector<uint64_t> Buf;
  std::vector<uint32_t> FreeList;
  uint32_t Stride;
  uint32_t Rows = 0;
  uint64_t FreshAllocs = 0;
  uint64_t ReusedAllocs = 0;
};

} // namespace herd

#endif // HERD_SUPPORT_CLOCKSTORE_H
