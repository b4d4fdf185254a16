// Stable LSD radix sort on raw 64-bit patterns: the one sort behind the
// latency summaries (common/stats.cpp, workload/client.cpp).
#pragma once

#include "l3/common/assert.h"

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace l3 {

/// Two buffers of `capacity` elements of T (std::uint64_t or double), plus
/// an optional std::uint32_t payload per element, for sorting by the
/// elements' 64 bits read as an unsigned integer. For non-negative doubles
/// that is ascending value order, and a set sign bit sorts after every clear
/// one — callers use it as a flag. Elements are left uninitialized until
/// written (every one is overwritten before it is read, so value-
/// initialization would be pure-overhead memsets), and pages past the
/// elements actually used are never touched.
template <class T>
class RadixBuffer {
  static_assert(sizeof(T) == sizeof(std::uint64_t));

 public:
  RadixBuffer(std::size_t capacity, bool with_payload)
      : data_(std::make_unique_for_overwrite<T[]>(capacity)),
        scratch_(std::make_unique_for_overwrite<T[]>(capacity)) {
    if (with_payload) {
      payload_ = std::make_unique_for_overwrite<std::uint32_t[]>(capacity);
      payload_scratch_ =
          std::make_unique_for_overwrite<std::uint32_t[]>(capacity);
    }
  }

  T* data() { return data_.get(); }
  T* scratch() { return scratch_.get(); }
  /// Null without a payload.
  std::uint32_t* payload() { return payload_.get(); }
  std::uint32_t* payload_scratch() { return payload_scratch_.get(); }

  /// Exchanges the data and scratch buffers (after a pass that wrote
  /// scratch).
  void swap() {
    std::swap(data_, scratch_);
    std::swap(payload_, payload_scratch_);
  }

  /// Stable byte-wise LSD sort of data()[0, n), payload alongside. O(n)
  /// passes of sequential traffic instead of n·log n branchy comparisons; a
  /// digit position where every key agrees (common in the exponent bytes of
  /// same-scale samples, and in the flag bit when no element is flagged) is
  /// skipped outright.
  void sort(std::size_t n) {
    if (n < 2) return;
    L3_EXPECTS(n <= UINT32_MAX);
    std::array<std::array<std::uint32_t, 256>, 8> hist{};
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = key(data_[i]);
      for (std::size_t d = 0; d < 8; ++d) ++hist[d][(k >> (8 * d)) & 255];
    }
    for (std::size_t d = 0; d < 8; ++d) {
      const auto& h = hist[d];
      const std::size_t shift = 8 * d;
      if (h[(key(data_[0]) >> shift) & 255] == n) continue;
      std::array<std::uint32_t, 256> offset;
      std::uint32_t sum = 0;
      for (std::size_t j = 0; j < 256; ++j) {
        offset[j] = sum;
        sum += h[j];
      }
      const T* src = data_.get();
      T* dst = scratch_.get();
      if (payload_) {
        const std::uint32_t* psrc = payload_.get();
        std::uint32_t* pdst = payload_scratch_.get();
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t at = offset[(key(src[i]) >> shift) & 255]++;
          dst[at] = src[i];
          pdst[at] = psrc[i];
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          dst[offset[(key(src[i]) >> shift) & 255]++] = src[i];
        }
      }
      swap();
    }
  }

 private:
  static std::uint64_t key(T v) { return std::bit_cast<std::uint64_t>(v); }

  std::unique_ptr<T[]> data_;
  std::unique_ptr<T[]> scratch_;
  std::unique_ptr<std::uint32_t[]> payload_;
  std::unique_ptr<std::uint32_t[]> payload_scratch_;
};

}  // namespace l3
