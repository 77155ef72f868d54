// CoalescingTracker unit tests: the transaction counts that feed the GPU
// timing model must follow the Fermi segment rules the tracker implements,
// and must equal, on random access streams, the counts of the simple
// algorithm the tracker replaced (kept below as ReferenceTracker).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "clsim/coalescing.hpp"
#include "clsim/runtime.hpp"

using hplrepro::clsim::CoalescingTracker;

namespace {

// The earlier tracker, verbatim: a per-instruction hash-map entry holding
// the current warp's tagged segments in a vector scanned with std::find.
// Quadratic per warp, but obviously right; the oracle of the differential
// test below.
class ReferenceTracker final : public hplrepro::clc::MemTracker {
public:
  explicit ReferenceTracker(unsigned warp_size, unsigned segment_bytes)
      : warp_size_(warp_size == 0 ? 1 : warp_size),
        segment_bytes_(segment_bytes == 0 ? 32 : segment_bytes) {}

  void global_access(std::uint32_t pc_key, std::uint64_t item_linear,
                     std::uint64_t buffer, std::uint64_t offset,
                     std::uint32_t size, bool /*is_store*/) override {
    PerInstr& state = instrs_[pc_key];
    const std::uint64_t warp = item_linear / warp_size_;
    if (warp != state.warp) {
      transactions_ += state.segments.size();
      state.segments.clear();
      state.warp = warp;
    }

    // Tag segments with the buffer id in the top bits so accesses to two
    // different buffers never merge.
    const std::uint64_t first = (buffer << 50) | (offset / segment_bytes_);
    const std::uint64_t last =
        (buffer << 50) | ((offset + size - 1) / segment_bytes_);
    for (std::uint64_t seg = first; seg <= last; ++seg) {
      if (std::find(state.segments.begin(), state.segments.end(), seg) ==
          state.segments.end()) {
        state.segments.push_back(seg);
      }
    }
  }

  std::uint64_t finish() {
    for (auto& [key, state] : instrs_) {
      transactions_ += state.segments.size();
      state.segments.clear();
      state.warp = UINT64_MAX;
    }
    const std::uint64_t result = transactions_;
    transactions_ = 0;
    return result;
  }

private:
  struct PerInstr {
    std::uint64_t warp = UINT64_MAX;
    std::vector<std::uint64_t> segments;
  };

  unsigned warp_size_;
  unsigned segment_bytes_;
  std::unordered_map<std::uint32_t, PerInstr> instrs_;
  std::uint64_t transactions_ = 0;
};

TEST(Coalescing, FullyCoalescedWarpUsesMinimalSegments) {
  CoalescingTracker tracker(32, 32);
  // 32 lanes touch consecutive floats: 128 bytes = 4 segments of 32 B.
  for (std::uint64_t lane = 0; lane < 32; ++lane) {
    tracker.global_access(/*pc=*/1, lane, /*buffer=*/0, lane * 4, 4, false);
  }
  EXPECT_EQ(tracker.finish(), 4u);
}

TEST(Coalescing, StridedWarpPaysOneSegmentPerLane) {
  CoalescingTracker tracker(32, 32);
  // Stride of 128 bytes: every lane lands in its own segment.
  for (std::uint64_t lane = 0; lane < 32; ++lane) {
    tracker.global_access(1, lane, 0, lane * 128, 4, false);
  }
  EXPECT_EQ(tracker.finish(), 32u);
}

TEST(Coalescing, SameAddressBroadcastIsOneSegment) {
  CoalescingTracker tracker(32, 32);
  for (std::uint64_t lane = 0; lane < 32; ++lane) {
    tracker.global_access(1, lane, 0, 4096, 4, false);
  }
  EXPECT_EQ(tracker.finish(), 1u);
}

TEST(Coalescing, SeparateWarpsCountSeparately) {
  CoalescingTracker tracker(32, 32);
  // Two warps, each coalesced: 4 + 4 segments.
  for (std::uint64_t item = 0; item < 64; ++item) {
    tracker.global_access(1, item, 0, item * 4, 4, false);
  }
  EXPECT_EQ(tracker.finish(), 8u);
}

TEST(Coalescing, DistinctInstructionsTrackIndependently) {
  CoalescingTracker tracker(32, 32);
  for (std::uint64_t lane = 0; lane < 32; ++lane) {
    tracker.global_access(1, lane, 0, lane * 4, 4, false);       // coalesced
    tracker.global_access(2, lane, 0, lane * 256, 4, false);     // scattered
  }
  EXPECT_EQ(tracker.finish(), 4u + 32u);
}

TEST(Coalescing, DifferentBuffersNeverMerge) {
  CoalescingTracker tracker(32, 32);
  for (std::uint64_t lane = 0; lane < 32; ++lane) {
    tracker.global_access(1, lane, /*buffer=*/lane % 2, 0, 4, false);
  }
  // Same offset but two buffers: 2 segments.
  EXPECT_EQ(tracker.finish(), 2u);
}

TEST(Coalescing, AccessSpanningSegmentsCountsBoth) {
  CoalescingTracker tracker(32, 32);
  // An 8-byte access at offset 28 crosses the 32-byte boundary.
  tracker.global_access(1, 0, 0, 28, 8, false);
  EXPECT_EQ(tracker.finish(), 2u);
}

TEST(Coalescing, WarpSizeOneCountsEveryAccess) {
  CoalescingTracker tracker(1, 32);
  for (std::uint64_t item = 0; item < 8; ++item) {
    tracker.global_access(1, item, 0, item * 4, 4, false);
  }
  // Each item forms its own warp: 8 transactions even though consecutive.
  EXPECT_EQ(tracker.finish(), 8u);
}

TEST(Coalescing, ResetClearsState) {
  CoalescingTracker tracker(32, 32);
  tracker.global_access(1, 0, 0, 0, 4, false);
  tracker.reset();
  EXPECT_EQ(tracker.finish(), 0u);
}

TEST(Coalescing, FinishIsIdempotent) {
  CoalescingTracker tracker(32, 32);
  tracker.global_access(1, 0, 0, 0, 4, false);
  EXPECT_EQ(tracker.finish(), 1u);
  EXPECT_EQ(tracker.finish(), 0u);
}

TEST(Coalescing, StridedLoopOfOneInstructionIsExact) {
  // Reduction's pattern: 32 items each load 128 floats from one
  // instruction at a stride of 8192 floats. Per stride step the warp's 32
  // consecutive floats fill 4 segments: 128 x 4 = 512 transactions.
  CoalescingTracker tracker(32, 32);
  ReferenceTracker reference(32, 32);
  for (std::uint64_t item = 0; item < 32; ++item) {
    for (std::uint64_t j = 0; j < 128; ++j) {
      const std::uint64_t offset = (item + j * 8192) * 4;
      tracker.global_access(3, item, 0, offset, 4, false);
      reference.global_access(3, item, 0, offset, 4, false);
    }
  }
  EXPECT_EQ(tracker.finish(), 512u);
  EXPECT_EQ(reference.finish(), 512u);
}

TEST(Coalescing, MatchesReferenceOnRandomStreams) {
  // Seeded random access streams over several instructions (two functions)
  // and buffers, work-item sequences that restart at item 0 the way
  // barrier phases do, 1-8 byte accesses that straddle segment boundaries,
  // and finish() called mid-stream; every finish() must agree.
  constexpr unsigned kWarps[] = {1, 32, 64};
  constexpr unsigned kSegments[] = {32, 64, 128};
  std::size_t checks = 0;
  for (std::uint64_t stream = 0; stream < 3000; ++stream) {
    std::mt19937_64 rng(stream);
    auto pick = [&](std::uint64_t n) { return rng() % n; };
    const unsigned warp = kWarps[pick(3)];
    const unsigned segment = kSegments[pick(3)];
    CoalescingTracker tracker(warp, segment);
    ReferenceTracker reference(warp, segment);

    std::vector<std::uint32_t> pcs(1 + pick(6));
    for (auto& pc : pcs) {
      pc = static_cast<std::uint32_t>((pick(2) << 20) | pick(64));
    }
    const std::uint64_t items = 1 + pick(150);
    const std::uint64_t phases = 1 + pick(3);
    const std::uint64_t per_item = 1 + pick(4);
    const std::uint64_t stride = 1 + pick(300);
    for (std::uint64_t phase = 0; phase < phases; ++phase) {
      for (std::uint64_t item = 0; item < items; ++item) {
        for (std::uint64_t k = 0; k < per_item; ++k) {
          const std::uint32_t pc = pcs[pick(pcs.size())];
          const std::uint64_t buffer = pick(4);
          const auto size = static_cast<std::uint32_t>(1 + pick(8));
          std::uint64_t offset = 0;
          switch (pick(4)) {
            case 0: offset = item * size + k * 4096; break;  // coalesced
            case 1: offset = item * stride + k; break;       // strided
            case 2: offset = pick(1 << 16); break;           // scattered
            default:  // ends just past a segment boundary
              offset = (1 + pick(512)) * segment - pick(size);
              break;
          }
          tracker.global_access(pc, item, buffer, offset, size, k % 2 == 0);
          reference.global_access(pc, item, buffer, offset, size,
                                  k % 2 == 0);
          if (pick(400) == 0) {
            ASSERT_EQ(tracker.finish(), reference.finish())
                << "stream " << stream << " mid-stream";
            ++checks;
          }
        }
      }
    }
    ASSERT_EQ(tracker.finish(), reference.finish()) << "stream " << stream;
    ++checks;
  }
  EXPECT_GT(checks, 3000u);
}

TEST(Coalescing, RejectsSizesThatAreNotPowersOfTwo) {
  EXPECT_THROW(CoalescingTracker(24, 32), hplrepro::InvalidArgument);
  EXPECT_THROW(CoalescingTracker(32, 48), hplrepro::InvalidArgument);
}

TEST(Coalescing, RegisterDeviceRejectsNonPowerOfTwoWarp) {
  auto& platform = hplrepro::clsim::Platform::get();
  const std::size_t before = platform.devices().size();
  auto spec = hplrepro::clsim::tesla_c2050();
  spec.name = "SimWarp24";
  spec.warp_size = 24;
  EXPECT_THROW(platform.register_device(spec), hplrepro::InvalidArgument);
  EXPECT_EQ(platform.devices().size(), before);
}

}  // namespace
