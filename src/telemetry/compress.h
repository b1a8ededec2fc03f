// Columnar block compression for the §5.3 telemetry firehose.
//
// Two codecs, both bit-exact round-trips over arbitrary doubles (NaN,
// denormals, signed zero — they operate on raw bit patterns, never on
// arithmetic values):
//
//   * Timestamps: predictive delta-of-delta. Counter samples arrive on a
//     fixed cadence, so t[i] almost always equals the linear prediction
//     t[i-1] + (t[i-1] - t[i-2]) *evaluated in binary64*; a predictor hit
//     costs one bit. Misses (first two samples, cadence changes, gaps)
//     store the raw 64-bit pattern. Because the decoder re-evaluates the
//     same double expression, reconstruction is bit-exact by construction —
//     no rounding argument needed.
//
//   * Values: Gorilla-style XOR (Pelkonen et al., VLDB'15). Fleet counters
//     are near-constant or slowly ramping, so consecutive bit patterns
//     share sign/exponent/high-mantissa bits; the XOR is zero or has a
//     narrow window of meaningful bits. Identical value -> 1 bit; window
//     reuse -> '10' + meaningful bits; new window -> '11' + 5-bit leading-
//     zero count + 6-bit length + meaningful bits.
//
// On the reference counter mix (see workload/fleet_counters.h) the two
// codecs together hold a sealed block under 2 bytes/point against 16 bytes
// raw — the >= 8x in-memory compression the EXP-AA gate enforces.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace epm::telemetry {

/// Append-only MSB-first bit stream.
class BitWriter {
 public:
  /// Appends the low `n` bits of `bits` (1..64), most significant first.
  void put(std::uint64_t bits, unsigned n) {
    while (n > 0) {
      const unsigned take = n < free_ ? n : free_;
      acc_ = (acc_ << take) |
             ((bits >> (n - take)) & ((take == 64) ? ~0ull : ((1ull << take) - 1)));
      free_ -= take;
      n -= take;
      if (free_ == 0) {
        bytes_.push_back(static_cast<std::uint8_t>(acc_));
        acc_ = 0;
        free_ = 8;
      }
    }
  }
  void put_bit(bool bit) { put(bit ? 1u : 0u, 1); }

  /// Flushes the partial byte (zero-padded) and returns the stream.
  std::vector<std::uint8_t> finish() {
    if (free_ < 8) {
      bytes_.push_back(static_cast<std::uint8_t>(acc_ << free_));
      acc_ = 0;
      free_ = 8;
    }
    return std::move(bytes_);
  }

  std::size_t bit_count() const {
    return bytes_.size() * 8 + (8 - free_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;
  unsigned free_ = 8;  ///< bits still open in the accumulator byte
};

/// Thrown by BitReader when a read runs past the end of its buffer: the
/// stream is truncated or its header overstates the sample count.
class EndOfStreamError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// MSB-first reader over a BitWriter stream. Reading past the last byte
/// throws EndOfStreamError instead of inventing zero bits, so a truncated
/// block cannot decode into plausible wrong values.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t bytes)
      : data_(data), bytes_(bytes) {}
  explicit BitReader(const std::vector<std::uint8_t>& bytes)
      : BitReader(bytes.data(), bytes.size()) {}

  std::uint64_t get(unsigned n) {
    std::uint64_t out = 0;
    while (n > 0) {
      if (avail_ == 0) {
        if (pos_ >= bytes_) {
          throw EndOfStreamError("BitReader: read past the end of the stream");
        }
        cur_ = data_[pos_++];
        avail_ = 8;
      }
      const unsigned take = n < avail_ ? n : avail_;
      out = (out << take) | ((cur_ >> (avail_ - take)) & ((1u << take) - 1));
      avail_ -= take;
      n -= take;
    }
    return out;
  }
  bool get_bit() { return get(1) != 0; }

 private:
  const std::uint8_t* data_;
  std::size_t bytes_;
  std::size_t pos_ = 0;
  unsigned cur_ = 0;
  unsigned avail_ = 0;
};

/// Encodes `n` timestamps with the linear predictor; bit-exact decode.
void encode_times(const double* times_s, std::size_t n, BitWriter& out);
void decode_times(BitReader& in, double* times_s, std::size_t n);

/// Encodes `n` values with the Gorilla XOR scheme; bit-exact decode.
void encode_values(const double* values, std::size_t n, BitWriter& out);
void decode_values(BitReader& in, double* values, std::size_t n);

}  // namespace epm::telemetry
