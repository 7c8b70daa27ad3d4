// Fixed-capacity staging over memory the arena does NOT own — above all the
// per-client staging regions of the whtd shared-memory segment
// (ipc/protocol.hpp), where "grow" is impossible and allocations must be
// describable as plain offsets so the other process can find them.
// Sequential bump allocation with explicit whole-arena reset matches the
// request lifecycle exactly: stage vectors, serve them in place, reset when
// nothing is in flight.
#pragma once

#include <cstddef>
#include <functional>

namespace whtlab::util {

/// Bump allocator over caller-provided double storage (typically a region of
/// a shared-memory segment).  Allocations advance a cursor, rounded up to
/// cache-line multiples so every returned pointer stays 64-byte aligned as
/// long as the attached base is; reset() reclaims everything at once.  Not
/// thread-safe — one arena, one allocation stream (the whtd client's
/// staging discipline; ipc/client.hpp).
class BumpArena {
 public:
  BumpArena() = default;

  /// Points the arena at `capacity` doubles starting at `base` (not owned;
  /// must outlive the arena's use).  Resets the cursor.
  void attach(double* base, std::size_t capacity) {
    base_ = base;
    capacity_ = capacity;
    used_ = 0;
  }

  /// The next `count` doubles, or nullptr when they do not fit (the caller
  /// decides whether to reset, wait, or fail — this class cannot know
  /// whether earlier allocations are still live).
  double* allocate(std::size_t count) {
    const std::size_t need = round_up(count);
    if (need > capacity_ - used_) return nullptr;
    double* out = base_ + used_;
    used_ += need;
    return out;
  }

  /// Reclaims the whole arena.  Only valid when no earlier allocation is
  /// still in use (nothing in flight).
  void reset() { used_ = 0; }

  /// Offset of an allocation in doubles from the base — the cross-process
  /// name for the memory (ipc requests carry offsets, never pointers).
  std::size_t offset_of(const double* p) const {
    return static_cast<std::size_t>(p - base_);
  }
  double* at(std::size_t offset) const { return base_ + offset; }

  /// Whether `p` points into this arena's storage.  Reconnecting clients use
  /// it to spot pointers staged in a *previous* attachment (std::less makes
  /// the unrelated-pointer comparison well-defined).
  bool contains(const double* p) const {
    return base_ != nullptr && !std::less<const double*>{}(p, base_) &&
           std::less<const double*>{}(p, base_ + capacity_);
  }

  bool attached() const { return base_ != nullptr; }
  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }

  /// Largest single allocation this arena can ever satisfy.
  std::size_t max_allocation() const {
    return capacity_ & ~(kLineDoubles - 1);
  }

 private:
  static constexpr std::size_t kLineDoubles = 8;  // 64 bytes
  static std::size_t round_up(std::size_t count) {
    return (count + kLineDoubles - 1) & ~(kLineDoubles - 1);
  }

  double* base_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
};

}  // namespace whtlab::util
