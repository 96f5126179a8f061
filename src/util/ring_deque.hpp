#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace clove::util {

/// Growable ring-buffer FIFO, the allocation-free replacement for the
/// std::deque behind every Link egress queue and propagation pipe.
///
/// std::deque allocates and frees fixed-size blocks as elements cycle
/// through it, so a steady packet stream costs a heap round-trip every few
/// dozen packets per queue. RingDeque keeps one power-of-two buffer and
/// moves head/tail indices; it allocates only when occupancy exceeds the
/// current capacity, which stops happening once a simulation reaches its
/// queue-depth high-watermark.
///
/// T must be default-constructible and movable (PacketPtr and
/// pair<Time, PacketPtr> both are). pop_front() move-assigns the slot out,
/// so resources are released as eagerly as std::deque would.
template <typename T>
class RingDeque {
 public:
  static constexpr std::size_t kMinCapacity = 8;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
    ++size_;
  }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    push_back(T(std::forward<Args>(args)...));
  }

  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }
  /// The element `i` places behind the front (0 = front); i < size().
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  [[nodiscard]] T& back() {
    return buf_[(head_ + size_ - 1) & (buf_.size() - 1)];
  }

  void pop_front() {
    buf_[head_] = T{};  // release held resources now, as deque would
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  void grow() {
    const std::size_t new_cap = buf_.empty() ? kMinCapacity : buf_.size() * 2;
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_{0};
  std::size_t size_{0};
};

}  // namespace clove::util
