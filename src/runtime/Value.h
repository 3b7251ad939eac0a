//===- runtime/Value.h - Runtime values -------------------------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniJ runtime value: a 64-bit integer or an object reference.  Null
/// is the reference with an invalid ObjectId.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_RUNTIME_VALUE_H
#define HERD_RUNTIME_VALUE_H

#include "support/Ids.h"

#include <cassert>
#include <cstdint>

namespace herd {

/// A runtime value.  MiniJ is dynamically checked: using an integer where a
/// reference is required (or vice versa) is a runtime error surfaced by the
/// interpreter, mirroring a JVM verifier failure.
class Value {
public:
  /// The default value is the integer 0 (MiniJ zero-initializes registers,
  /// fields and array elements, as Java does).
  constexpr Value() = default;

  static constexpr Value makeInt(int64_t I) { return Value(I); }
  static constexpr Value makeRef(ObjectId Ref) { return Value(Ref); }

  constexpr bool isRef() const { return IsRef; }
  constexpr bool isNull() const { return IsRef && !Ref.isValid(); }

  constexpr int64_t asInt() const {
    assert(!IsRef && "value is a reference, not an integer");
    return Int;
  }

  constexpr ObjectId asRef() const {
    assert(IsRef && "value is an integer, not a reference");
    return Ref;
  }

  /// Truthiness for Branch: non-zero integer, or non-null reference.
  constexpr bool isTruthy() const { return IsRef ? Ref.isValid() : Int != 0; }

  friend constexpr bool operator==(Value A, Value B) {
    if (A.IsRef != B.IsRef)
      return false;
    return A.IsRef ? A.Ref == B.Ref : A.Int == B.Int;
  }

private:
  constexpr explicit Value(int64_t I) : Int(I) {}
  constexpr explicit Value(ObjectId R) : Ref(R), IsRef(true) {}

  int64_t Int = 0;
  ObjectId Ref;
  bool IsRef = false;
};

} // namespace herd

#endif // HERD_RUNTIME_VALUE_H
