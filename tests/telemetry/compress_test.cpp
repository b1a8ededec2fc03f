// Property test for the columnar codecs (compress.h): encode -> decode is
// a bit-exact identity over arbitrary doubles. 10,000 randomized series per
// seed x 3 seeds, mixing the shapes real counters produce (constant runs,
// monotone ramps, stuck-at alternation) with adversarial bit patterns
// (NaNs with payloads, denormals, infinities, signed zero) that arithmetic
// comparison would mangle — the codecs must treat every double as an opaque
// 64-bit pattern.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/rng.h"
#include "telemetry/compress.h"

namespace epm::telemetry {
namespace {

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

double nasty_double(Rng& rng) {
  static const double kPool[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::epsilon(),
      1.0,
      -1.0,
      1e308,
      4.9e-324,
  };
  if (rng.bernoulli(0.5)) {
    return kPool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(std::size(kPool)) - 1))];
  }
  // A fully random bit pattern: hits NaN payloads, denormals, and every
  // exponent with equal prejudice.
  return std::bit_cast<double>(rng.next_u64());
}

/// One randomized series: (times, values) of length 0..40 in one of the
/// reference-mix shapes, or raw adversarial patterns.
void make_series(Rng& rng, std::vector<double>& times, std::vector<double>& values) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(0, 40));
  times.clear();
  values.clear();
  const int shape = static_cast<int>(rng.uniform_int(0, 4));
  double t = rng.uniform(0.0, 1e6);
  const double cadence = rng.bernoulli(0.5) ? 15.0 : rng.uniform(0.1, 120.0);
  double v = static_cast<double>(rng.uniform_int(-1000, 1000));
  const double stuck = static_cast<double>(rng.uniform_int(-1000, 1000));
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:  // constant run on a fixed cadence
        break;
      case 1:  // monotone ramp (cumulative counter)
        v += static_cast<double>(rng.uniform_int(0, 100));
        break;
      case 2:  // stuck-at alternation in runs
        if (rng.bernoulli(0.2)) v = rng.bernoulli(0.5) ? stuck : v + 1.0;
        break;
      case 3:  // adversarial values on a sane cadence
        v = nasty_double(rng);
        break;
      default:  // adversarial values AND times (codec-contract torture)
        v = nasty_double(rng);
        break;
    }
    times.push_back(shape == 4 ? nasty_double(rng) : t);
    values.push_back(v);
    t += cadence;
    if (shape != 4 && rng.bernoulli(0.05)) t += cadence * 37.0;  // gap
  }
}

TEST(TelemetryCompressProperty, EncodeDecodeIsBitExactOver30kRandomSeries) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<double> times;
    std::vector<double> values;
    std::vector<double> rt_times;
    std::vector<double> rt_values;
    for (int series = 0; series < 10'000; ++series) {
      make_series(rng, times, values);

      BitWriter tw;
      encode_times(times.data(), times.size(), tw);
      const auto time_bytes = tw.finish();
      BitReader tr(time_bytes);
      rt_times.assign(times.size(), 0.0);
      decode_times(tr, rt_times.data(), rt_times.size());
      ASSERT_TRUE(bit_equal(times, rt_times))
          << "time round-trip diverged (seed " << seed << ", series " << series
          << ", n " << times.size() << ")";

      BitWriter vw;
      encode_values(values.data(), values.size(), vw);
      const auto value_bytes = vw.finish();
      BitReader vr(value_bytes);
      rt_values.assign(values.size(), 0.0);
      decode_values(vr, rt_values.data(), rt_values.size());
      ASSERT_TRUE(bit_equal(values, rt_values))
          << "value round-trip diverged (seed " << seed << ", series " << series
          << ", n " << values.size() << ")";
    }
  }
}

TEST(TelemetryCompressProperty, BitStreamRoundTripsArbitraryWidths) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<std::uint64_t, unsigned>> chunks;
    BitWriter writer;
    for (int i = 0; i < 50; ++i) {
      const auto width = static_cast<unsigned>(rng.uniform_int(1, 64));
      const std::uint64_t bits =
          width == 64 ? rng.next_u64() : (rng.next_u64() & ((1ull << width) - 1));
      chunks.emplace_back(bits, width);
      writer.put(bits, width);
    }
    const auto bytes = writer.finish();
    BitReader reader(bytes);
    for (const auto& [bits, width] : chunks) {
      ASSERT_EQ(reader.get(width), bits) << "width " << width;
    }
  }
}

TEST(TelemetryCompress, BitReaderThrowsAtEndOfStream) {
  BitWriter writer;
  writer.put(0b101, 3);
  const auto bytes = writer.finish();  // one byte: 101 + five pad bits
  ASSERT_EQ(bytes.size(), 1u);
  BitReader reader(bytes);
  EXPECT_EQ(reader.get(3), 0b101u);
  EXPECT_EQ(reader.get(5), 0u);  // padding is inside the buffer
  EXPECT_THROW(reader.get(1), EndOfStreamError);

  BitReader empty(nullptr, 0);
  EXPECT_THROW(empty.get_bit(), EndOfStreamError);

  // A 64-bit read that starts inside the buffer but ends past it throws
  // too, rather than returning a partly zero-filled word.
  const std::vector<std::uint8_t> seven(7, 0xff);
  BitReader short_word(seven);
  EXPECT_THROW(short_word.get(64), EndOfStreamError);
}

TEST(TelemetryCompress, DecodeRejectsAWindowWiderThan64Bits) {
  // Hand-built value stream: a seed value, then a new-window record whose
  // lead (31) + length (64) exceeds the word. Decoding it would shift by
  // 64 - 31 - 64 (wrapped) bits.
  BitWriter writer;
  writer.put(0x4045000000000000ull, 64);  // 42.0
  writer.put_bit(true);                   // XOR is non-zero
  writer.put_bit(true);                   // new window
  writer.put(31, 5);                      // leading zeros
  writer.put(63, 6);                      // length - 1 -> 64 bits
  writer.put(~0ull, 64);                  // meaningful bits
  const auto bytes = writer.finish();
  BitReader reader(bytes);
  std::vector<double> values(2);
  EXPECT_THROW(decode_values(reader, values.data(), values.size()),
               CorruptBlockError);
}

TEST(TelemetryCompress, DecodeRejectsWindowReuseBeforeAnyWindow) {
  // Hand-built value stream: a seed value, then a window-reuse record
  // although no window was ever set.
  BitWriter writer;
  writer.put(0x4045000000000000ull, 64);  // 42.0
  writer.put_bit(true);                   // XOR is non-zero
  writer.put_bit(false);                  // reuse the (unset) window
  writer.put(0, 16);                      // bits a reader might consume
  const auto bytes = writer.finish();
  BitReader reader(bytes);
  std::vector<double> values(2);
  EXPECT_THROW(decode_values(reader, values.data(), values.size()),
               CorruptBlockError);
}

TEST(TelemetryCompress, ConstantCadenceSeriesCompressesFarBelowRaw) {
  // 1024 identical values on a fixed 15 s cadence: after the two seed
  // samples, every timestamp is a predictor hit (1 bit) and every value an
  // identical-XOR (1 bit) — the whole block should land near 2 bits/point
  // against 128 raw.
  constexpr std::size_t kN = 1024;
  std::vector<double> times(kN);
  std::vector<double> values(kN, 42.0);
  for (std::size_t i = 0; i < kN; ++i) times[i] = 15.0 * static_cast<double>(i);
  BitWriter tw;
  encode_times(times.data(), kN, tw);
  BitWriter vw;
  encode_values(values.data(), kN, vw);
  const std::size_t payload = tw.finish().size() + vw.finish().size();
  EXPECT_LT(payload, kN * 16 / 32);  // >= 32x on the ideal series
}

}  // namespace
}  // namespace epm::telemetry
