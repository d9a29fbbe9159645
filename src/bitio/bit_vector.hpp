// BitVector: a growable sequence of bits, the unit of account for every
// routing-function size in this library.
//
// The paper measures the space of a routing scheme as the sum over all nodes
// of the number of bits needed to encode the local routing function (§1).
// Every scheme in src/schemes serializes its local routing functions into
// BitVectors and routes by decoding them, so BitVector::size() is the honest
// space cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace optrt::bitio {

/// A dynamically sized bit string. Bit 0 is the first bit appended.
class BitVector {
 public:
  BitVector() = default;

  /// Constructs a bit vector of `n` bits, all zero.
  explicit BitVector(std::size_t n) : size_(n), words_((n + 63) / 64, 0) {}

  BitVector(const BitVector&) = default;
  BitVector& operator=(const BitVector&) = default;
  // Moved-from vectors must be empty (size_ is scalar: the default move
  // would leave a nonzero size over vacated storage).
  BitVector(BitVector&& other) noexcept
      : size_(other.size_), words_(std::move(other.words_)) {
    other.size_ = 0;
    other.words_.clear();
  }
  BitVector& operator=(BitVector&& other) noexcept {
    size_ = other.size_;
    words_ = std::move(other.words_);
    other.size_ = 0;
    other.words_.clear();
    return *this;
  }

  /// Parses a string of '0'/'1' characters (useful in tests).
  static BitVector from_string(const std::string& bits);

  /// Adopts `size` bits packed LSB-first into `words`. Throws
  /// std::invalid_argument unless words.size() == ⌈size/64⌉ and every bit
  /// past `size` is zero.
  static BitVector from_words(std::vector<std::uint64_t> words,
                              std::size_t size);

  /// Number of bits stored.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Reads the bit at `i`. Precondition: i < size().
  [[nodiscard]] bool get(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Reads `width` ≤ 64 bits starting at `pos`, least-significant first,
  /// with at most two word loads. Precondition: pos + width <= size().
  [[nodiscard]] std::uint64_t get_bits(std::size_t pos,
                                       unsigned width) const noexcept {
    if (width == 0) return 0;
    const std::size_t w = pos >> 6;
    const unsigned off = pos & 63;
    std::uint64_t value = words_[w] >> off;
    if (off + width > 64) value |= words_[w + 1] << (64 - off);
    return width == 64 ? value : value & ((std::uint64_t{1} << width) - 1);
  }

  /// The `len` bits starting at `pos`, copied a word at a time. Throws
  /// std::out_of_range if pos + len > size().
  [[nodiscard]] BitVector slice(std::size_t pos, std::size_t len) const;

  /// Sets the bit at `i`. Precondition: i < size().
  void set(std::size_t i, bool value) noexcept {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  /// Appends one bit.
  void push_back(bool value) {
    if ((size_ & 63) == 0) words_.push_back(0);
    if (value) words_[size_ >> 6] |= std::uint64_t{1} << (size_ & 63);
    ++size_;
  }

  /// Appends the low `width` bits of `value`, least-significant bit first
  /// (one shift-or into at most two words). Throws std::invalid_argument
  /// if width > 64.
  void append_bits(std::uint64_t value, unsigned width) {
    if (width > 64) throw std::invalid_argument("append_bits: width > 64");
    if (width == 0) return;
    if (width < 64) value &= (std::uint64_t{1} << width) - 1;
    const unsigned off = size_ & 63;
    if (off == 0) {
      words_.push_back(value);
    } else {
      words_.back() |= value << off;
      if (off + width > 64) words_.push_back(value >> (64 - off));
    }
    size_ += width;
  }

  /// Appends all bits of `other`, a word at a time.
  void append(const BitVector& other);

  /// Number of one-bits.
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// Renders as a '0'/'1' string (tests and debugging).
  [[nodiscard]] std::string to_string() const;

  /// Raw 64-bit words (tail bits beyond size() are zero).
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

  friend bool operator==(const BitVector& a, const BitVector& b) noexcept {
    if (a.size_ != b.size_) return false;
    return a.words_ == b.words_;
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace optrt::bitio
