#include "bitio/bit_vector.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace optrt::bitio {

BitVector BitVector::from_string(const std::string& bits) {
  BitVector v;
  for (char c : bits) {
    if (c == '0') {
      v.push_back(false);
    } else if (c == '1') {
      v.push_back(true);
    } else {
      throw std::invalid_argument("BitVector::from_string: expected '0' or '1'");
    }
  }
  return v;
}

BitVector BitVector::from_words(std::vector<std::uint64_t> words,
                                std::size_t size) {
  if (words.size() != (size + 63) / 64) {
    throw std::invalid_argument("BitVector::from_words: word count != size");
  }
  if (size % 64 != 0 && (words.back() >> (size % 64)) != 0) {
    throw std::invalid_argument("BitVector::from_words: nonzero tail bits");
  }
  BitVector v;
  v.size_ = size;
  v.words_ = std::move(words);
  return v;
}

BitVector BitVector::slice(std::size_t pos, std::size_t len) const {
  if (pos > size_ || len > size_ - pos) {
    throw std::out_of_range("BitVector::slice: past end");
  }
  BitVector out;
  out.size_ = len;
  out.words_.resize((len + 63) / 64);
  for (std::size_t i = 0; i < out.words_.size(); ++i) {
    const std::size_t from = 64 * i;
    const auto width =
        static_cast<unsigned>(std::min<std::size_t>(64, len - from));
    out.words_[i] = get_bits(pos + from, width);
  }
  return out;
}

void BitVector::append(const BitVector& other) {
  // Indexed, not iterated: `other` may be *this, whose storage can move.
  const std::size_t len = other.size_;
  const std::size_t full = len / 64;
  words_.reserve((size_ + len + 63) / 64);
  for (std::size_t i = 0; i < full; ++i) append_bits(other.words_[i], 64);
  if (len % 64 != 0) {
    append_bits(other.words_[full], static_cast<unsigned>(len % 64));
  }
}

std::size_t BitVector::popcount() const noexcept {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

}  // namespace optrt::bitio
