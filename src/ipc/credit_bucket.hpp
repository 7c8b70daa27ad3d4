// Token-bucket credit account: whtd's one admission budget.
//
// Every admission spends `cost` credits (whtd charges one credit per staged
// vector, so a 64-vector batch costs 64x a single transform and no request
// is free), and the balance refills continuously at capacity-per-window.
// A client that stays under its sustained work rate never stalls, while a
// burst larger than the bucket gets a typed kThrottled until the refill
// catches up.
//
// O(1) per decision, no background bookkeeping: cheap enough for the
// daemon to keep one per client slot and consult on every request
// (daemon.cpp).  Capacity 0 disables it (everything admits).  Timestamps
// are caller-supplied nanoseconds, so tests drive it with a fake clock.
// Not thread-safe: one bucket belongs to one decision stream (whtd's are
// all consulted from the single service thread).  Rejected spends are not
// recorded.
#pragma once

#include <algorithm>
#include <cstdint>

namespace whtlab::ipc {

class CreditBucket {
 public:
  explicit CreditBucket(std::uint64_t capacity = 0,
                        std::uint64_t window_ns = 1000000000ULL)
      : capacity_(capacity),
        window_ns_(window_ns ? window_ns : 1),
        tokens_(capacity) {}

  /// Spends `cost` credits at `now_ns` if the (refilled) balance covers it.
  bool try_spend(std::uint64_t cost, std::uint64_t now_ns) {
    if (capacity_ == 0) return true;
    refill(now_ns);
    if (cost > tokens_) return false;
    tokens_ -= cost;
    return true;
  }

  /// The balance a spend at `now_ns` would see (advisory — published to the
  /// slot's shared `credits` word so clients can pace themselves).
  std::uint64_t available(std::uint64_t now_ns) {
    if (capacity_ == 0) return ~std::uint64_t{0};
    refill(now_ns);
    return tokens_;
  }

  /// Back to a full bucket with no history (slot handed to a new tenant).
  void reset() {
    tokens_ = capacity_;
    last_ns_ = 0;
  }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t window_ns() const { return window_ns_; }

 private:
  void refill(std::uint64_t now_ns) {
    const std::uint64_t elapsed = now_ns - last_ns_;  // monotonic clock
    if (elapsed >= window_ns_) {
      tokens_ = capacity_;
      last_ns_ = now_ns;
      return;
    }
    // Proportional refill in 128-bit: elapsed * capacity can exceed 2^64
    // for large windows/capacities, and truncating here would leak credits.
    const auto earned = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(elapsed) * capacity_) / window_ns_);
    if (earned == 0) return;  // keep last_ns_ so sub-quantum time accrues
    tokens_ = std::min(capacity_, tokens_ + earned);
    last_ns_ = now_ns;
  }

  std::uint64_t capacity_;
  std::uint64_t window_ns_;
  std::uint64_t tokens_;  ///< starts full; a fresh bucket owes nothing
  std::uint64_t last_ns_ = 0;
};

}  // namespace whtlab::ipc
