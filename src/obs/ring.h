#ifndef SPOT_OBS_RING_H_
#define SPOT_OBS_RING_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace spot::obs {

/// Bounded, mutex-guarded ring of the most recent entries: the event
/// journal's and the flight recorder's one buffer (DESIGN.md Section 10.3).
/// Capacity 0 means 1. When full, Push overwrites the oldest entry, which
/// then counts as dropped, so a reader always sees the newest window plus
/// an honest count of what it missed. Writers arrive at event or batch
/// rate and readers at scrape rate, so the lock is uncontended in practice
/// and keeps Snapshot correct across threads.
template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    items_.reserve(capacity_ < 4096 ? capacity_ : 4096);
  }

  void Push(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
    } else {
      items_[next_] = std::move(item);
      next_ = (next_ + 1) % capacity_;
    }
    ++appended_;
  }

  /// The retained window, oldest first. `*first`, when given, receives the
  /// oldest entry's position in append order (0-based), which equals the
  /// number dropped when the window was taken.
  std::vector<T> Snapshot(std::uint64_t* first = nullptr) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<T> out;
    out.reserve(items_.size());
    // next_ is the oldest slot once the ring has wrapped.
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out.push_back(items_[(next_ + i) % items_.size()]);
    }
    if (first != nullptr) *first = appended_ - items_.size();
    return out;
  }

  /// Entries ever pushed (retained + dropped).
  std::uint64_t appended() const {
    std::lock_guard<std::mutex> lock(mu_);
    return appended_;
  }

  /// Entries overwritten before any snapshot could retain them.
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return appended_ - items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<T> items_;  // grows to capacity_, then wraps
  std::size_t next_ = 0;  // overwrite cursor once full
  std::uint64_t appended_ = 0;
};

}  // namespace spot::obs

#endif  // SPOT_OBS_RING_H_
