// A power-of-two ring deque.
//
// std::deque is the obvious per-flow FIFO, but it is a heavyweight object
// (80 bytes + a separately allocated chunk map + 512-byte chunks, even for
// a two-packet queue) and its push/pop paths branch through chunk
// management.  The simulator keeps one FIFO per flow per port — hundreds
// of mostly-short queues on the hottest paths — so this ring stores
// elements in a single power-of-two buffer with head/tail counters:
// push_back/pop_front are an index mask and a move, the empty ring owns no
// allocation, and capacity doubles geometrically (allocation-free once the
// steady-state depth is reached).
//
// Supports deque-style use (front/back/push_back/pop_front/pop_back),
// indexed scans, and erase_at() for the rare drop-victim paths.

#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

namespace ispn::util {

template <typename T>
class Ring {
 public:
  Ring() = default;

  Ring(Ring&& other) noexcept
      : buf_(std::move(other.buf_)),
        cap_(std::exchange(other.cap_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}

  Ring& operator=(Ring&& other) noexcept {
    if (this != &other) {
      buf_ = std::move(other.buf_);
      cap_ = std::exchange(other.cap_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return buf_[head_ & (cap_ - 1)];
  }
  [[nodiscard]] const T& front() const {
    assert(size_ > 0);
    return buf_[head_ & (cap_ - 1)];
  }
  [[nodiscard]] T& back() {
    assert(size_ > 0);
    return buf_[(head_ + size_ - 1) & (cap_ - 1)];
  }
  [[nodiscard]] const T& back() const {
    assert(size_ > 0);
    return buf_[(head_ + size_ - 1) & (cap_ - 1)];
  }

  /// Logical index: 0 is the front, size()-1 the back.
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }

  void push_back(T value) {
    if (size_ == cap_) grow();
    buf_[(head_ + size_) & (cap_ - 1)] = std::move(value);
    ++size_;
  }

  T pop_front() {
    assert(size_ > 0);
    T out = std::move(buf_[head_ & (cap_ - 1)]);
    ++head_;
    --size_;
    return out;
  }

  T pop_back() {
    assert(size_ > 0);
    --size_;
    return std::move(buf_[(head_ + size_) & (cap_ - 1)]);
  }

  /// Removes the element at logical index `i` by shifting the shorter side
  /// (cold path: drop-victim selection).
  T erase_at(std::size_t i) {
    assert(i < size_);
    T out = std::move((*this)[i]);
    if (i < size_ - i - 1) {
      for (std::size_t j = i; j > 0; --j) (*this)[j] = std::move((*this)[j - 1]);
      ++head_;
    } else {
      for (std::size_t j = i; j + 1 < size_; ++j) {
        (*this)[j] = std::move((*this)[j + 1]);
      }
    }
    --size_;
    return out;
  }

  /// Grows the buffer to hold at least `n` elements (a power of two).
  void reserve(std::size_t n) {
    if (n > cap_) regrow(std::bit_ceil(n));
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) (*this)[i] = T{};
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() { regrow(cap_ == 0 ? 8 : cap_ * 2); }

  void regrow(std::size_t new_cap) {
    auto fresh = std::make_unique<T[]>(new_cap);
    for (std::size_t i = 0; i < size_; ++i) fresh[i] = std::move((*this)[i]);
    buf_ = std::move(fresh);
    cap_ = new_cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  // monotone; masked on access
  std::size_t size_ = 0;
};

}  // namespace ispn::util
