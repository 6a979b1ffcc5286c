#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/slot_index.h"
#include "common/status.h"

namespace aurora {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing row");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing row");
}

TEST(StatusTest, AllConstructorsMatchPredicates) {
  EXPECT_TRUE(Status::Corruption("").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("").IsIOError());
  EXPECT_TRUE(Status::Busy("").IsBusy());
  EXPECT_TRUE(Status::TimedOut("").IsTimedOut());
  EXPECT_TRUE(Status::Aborted("").IsAborted());
  EXPECT_TRUE(Status::Unavailable("").IsUnavailable());
  EXPECT_TRUE(Status::NotSupported("").IsNotSupported());
  EXPECT_TRUE(Status::OutOfRange("").IsOutOfRange());
  EXPECT_TRUE(Status::Stale("").IsStale());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IOError("disk");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  EXPECT_TRUE(Slice("abc") < Slice("abd"));
  EXPECT_TRUE(Slice("abc") < Slice("abcd"));
  EXPECT_TRUE(Slice("abcdef").starts_with("abc"));
  EXPECT_FALSE(Slice("ab").starts_with("abc"));
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in(buf);
  uint16_t a;
  uint32_t b;
  uint64_t c;
  ASSERT_TRUE(GetFixed16(&in, &a));
  ASSERT_TRUE(GetFixed32(&in, &b));
  ASSERT_TRUE(GetFixed64(&in, &c));
  EXPECT_EQ(a, 0xBEEF);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripSweep) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384, 1u << 20};
  for (int shift = 0; shift < 64; ++shift) {
    values.push_back(1ull << shift);
    values.push_back((1ull << shift) - 1);
  }
  values.push_back(UINT64_MAX);
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintTruncatedFails) {
  std::string buf;
  PutVarint64(&buf, UINT64_MAX);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Slice in(buf.data(), cut);
    uint64_t v;
    EXPECT_FALSE(GetVarint64(&in, &v)) << "cut=" << cut;
  }
}

TEST(CodingTest, Varint32FastAndSlowPathsAgree) {
  // One-byte values take the inline path, longer ones the out-of-line
  // loop; both must round-trip, reject truncation and reject values that
  // overflow 32 bits.
  for (uint32_t v : {0u, 1u, 127u, 128u, 16383u, 16384u, UINT32_MAX}) {
    std::string buf;
    PutVarint32(&buf, v);
    char direct[5];
    EXPECT_EQ(std::string(direct, EncodeVarint32(direct, v) - direct), buf);
    Slice in(buf);
    uint32_t got = 0;
    ASSERT_TRUE(GetVarint32(&in, &got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_TRUE(in.empty());
    for (size_t cut = 0; cut < buf.size(); ++cut) {
      Slice short_in(buf.data(), cut);
      EXPECT_FALSE(GetVarint32(&short_in, &got)) << v << " cut=" << cut;
    }
  }
  std::string wide;
  PutVarint64(&wide, uint64_t{UINT32_MAX} + 1);
  Slice in(wide);
  uint32_t got = 0;
  EXPECT_FALSE(GetVarint32(&in, &got));
}

TEST(SlotIndexTest, MatchesAReferenceMapUnderCollisions) {
  // Keys hash to 8 values, so probe runs are long, wrap around the table
  // and are cut by backward-shift deletion all the time.
  auto hash = [](uint64_t key) { return Mix64(key % 8); };
  std::vector<uint64_t> keys;  // slot -> key
  std::map<uint64_t, uint32_t> reference;
  SlotIndex index;
  Random rng(20261017);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = rng.Uniform(200);
    auto find = [&] {
      return index.Find(hash(key),
                        [&](uint32_t slot) { return keys[slot] == key; });
    };
    auto it = reference.find(key);
    ASSERT_EQ(find(), it == reference.end() ? SlotIndex::kNone : it->second)
        << "step " << step;
    if (it == reference.end()) {
      const auto slot = static_cast<uint32_t>(keys.size());
      keys.push_back(key);
      index.Insert(hash(key), slot);
      reference[key] = slot;
    } else if (rng.Uniform(2) == 0) {
      index.Erase(hash(key), it->second);
      reference.erase(it);
    }
    ASSERT_EQ(index.size(), reference.size());
  }
  for (const auto& [key, slot] : reference) {
    EXPECT_EQ(index.Find(hash(key),
                         [&](uint32_t s) { return keys[s] == key; }),
              slot);
  }
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {0ull, 127ull, 128ull, 1ull << 62,
                     static_cast<unsigned long long>(UINT64_MAX)}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
  }
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, "alpha");
  PutLengthPrefixedSlice(&buf, "");
  PutLengthPrefixedSlice(&buf, std::string(1000, 'x'));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a.ToString(), "alpha");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zero.
  char zeros[32] = {0};
  EXPECT_EQ(crc32c::Value(zeros, 32), 0x8A9136AAu);
  // "123456789" -> 0xE3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, ExtendComposes) {
  const char* data = "hello world, this is aurora";
  size_t n = strlen(data);
  uint32_t whole = crc32c::Value(data, n);
  for (size_t split = 0; split <= n; ++split) {
    uint32_t part = crc32c::Extend(crc32c::Value(data, split), data + split,
                                   n - split);
    EXPECT_EQ(part, whole);
  }
}

TEST(Crc32cTest, HardwarePathMatchesTable) {
  // Extend() may run on the CRC instruction; the table loop is the
  // reference. Cover unaligned starts, short tails and split points.
  Random rng(7);
  std::string buf(4096 + 16, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  for (int i = 0; i < 2000; ++i) {
    const size_t offset = rng.Uniform(16);
    const size_t n = rng.Uniform(i < 1000 ? 64 : 4096);
    const char* data = buf.data() + offset;
    const uint32_t init = i % 3 == 0 ? 0 : static_cast<uint32_t>(rng.Next());
    const uint32_t want = crc32c::ExtendPortable(init, data, n);
    ASSERT_EQ(crc32c::Extend(init, data, n), want)
        << "offset " << offset << " n " << n;
    const size_t split = n == 0 ? 0 : rng.Uniform(n + 1);
    EXPECT_EQ(crc32c::Extend(crc32c::Extend(init, data, split), data + split,
                             n - split),
              want);
  }
}

// The hardware kernel runs three chains per 768-byte block and joins them;
// the table loop is the reference. Every length up to two blocks and a
// tail, at every start alignment, and the sizes the simulator checks most:
// a page plus a reply's frame header, 16 KiB pages and a large batch.
TEST(Crc32cTest, ThreeStreamKernelMatchesTableLoop) {
  Random rng(11);
  std::string buf(64 * 1024 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  for (size_t align = 0; align < 8; ++align) {
    const char* data = buf.data() + align;
    for (size_t n = 0; n <= 1600; ++n) {
      ASSERT_EQ(crc32c::Extend(0, data, n), crc32c::ExtendPortable(0, data, n))
          << "align " << align << " n " << n;
    }
    for (size_t n : {size_t{4096 + 20}, size_t{16384}, size_t{65536}}) {
      const uint32_t init = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(crc32c::Extend(init, data, n),
                crc32c::ExtendPortable(init, data, n))
          << "align " << align << " n " << n;
    }
  }
}

// A CRC extended in two pieces equals the one-piece CRC when the split
// falls just before, on or just after a block boundary, so each piece
// starts or ends with a partial block or an unaligned prefix.
TEST(Crc32cTest, SplitsAroundBlockBoundariesCompose) {
  constexpr size_t kBlock = 768;
  Random rng(12);
  std::string buf(4096 + 20 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  for (size_t align = 0; align < 8; ++align) {
    const char* data = buf.data() + align;
    const size_t n = 4096 + 20;
    const uint32_t want = crc32c::ExtendPortable(0, data, n);
    for (size_t boundary = kBlock; boundary < n; boundary += kBlock) {
      for (size_t split = boundary - 9; split <= boundary + 9; ++split) {
        ASSERT_EQ(crc32c::Extend(crc32c::Extend(0, data, split), data + split,
                                 n - split),
                  want)
            << "align " << align << " split " << split;
      }
    }
  }
}

// The join table is the "append 256 zero bytes" operator: check every
// entry (one byte of the register in one position) and random registers
// against the table loop. The raw register is the CRC without its pre-
// and post-inversion.
TEST(Crc32cTest, JoinTableAppends256ZeroBytes) {
  const std::string zeros(256, '\0');
  auto appended = [&zeros](uint32_t raw) {
    return crc32c::ExtendPortable(raw ^ 0xFFFFFFFFu, zeros.data(),
                                  zeros.size()) ^
           0xFFFFFFFFu;
  };
  for (int k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t raw = b << (8 * k);
      ASSERT_EQ(crc32c::ShiftBy256Zeros(raw), appended(raw)) << raw;
    }
  }
  Random rng(13);
  for (int i = 0; i < 1000; ++i) {
    const uint32_t raw = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(crc32c::ShiftBy256Zeros(raw), appended(raw)) << raw;
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

TEST(RandomTest, Deterministic) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, ExponentialMean) {
  Random r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.Exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(RandomTest, LogNormalMedian) {
  Random r(13);
  std::vector<double> vals;
  const int n = 10001;
  for (int i = 0; i < n; ++i) vals.push_back(r.LogNormal(50.0, 0.3));
  std::sort(vals.begin(), vals.end());
  EXPECT_NEAR(vals[n / 2], 50.0, 3.0);
}

TEST(RandomTest, ForkProducesIndependentStream) {
  Random a(42);
  Random b = a.Fork();
  EXPECT_NE(a.Next(), b.Next());
}

TEST(ZipfTest, SkewConcentratesOnHotKeys) {
  Random r(99);
  Zipf z(10000, 0.99);
  uint64_t hot = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (z.Sample(&r) < 100) ++hot;  // top 1% of keys
  }
  // With theta=0.99 the top 1% should draw far more than 1% of samples.
  EXPECT_GT(hot, n / 4);
}

TEST(ZipfTest, UniformWhenThetaZero) {
  Random r(5);
  Zipf z(100, 0.0);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = z.Sample(&r);
    EXPECT_LT(v, 100u);
    seen.insert(v);
  }
  EXPECT_GT(seen.size(), 90u);
}

TEST(ZipfTest, SamplesAlwaysInRange) {
  Random r(17);
  for (double theta : {0.2, 0.5, 0.9, 0.99}) {
    Zipf z(1000, theta);
    for (int i = 0; i < 5000; ++i) EXPECT_LT(z.Sample(&r), 1000u);
  }
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.P50(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, ExactSmallValues) {
  Histogram h;
  for (uint64_t v = 0; v < 31; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 31u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_EQ(h.Percentile(50), 15u);
}

TEST(HistogramTest, PercentileAccuracy) {
  Histogram h;
  for (uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  // Log-bucketed: relative error should be within ~2 * 1/32.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50000.0, 50000 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.Percentile(95)), 95000.0, 95000 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 99000.0, 99000 * 0.07);
  EXPECT_EQ(h.Percentile(100), 100000u);
}

TEST(HistogramTest, MergeMatchesCombined) {
  Histogram a, b, combined;
  Random r(3);
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = r.Uniform(1000000);
    if (i % 2) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_EQ(a.P95(), combined.P95());
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(100);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

}  // namespace
}  // namespace aurora
