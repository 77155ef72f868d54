#ifndef HPLREPRO_CLSIM_COALESCING_HPP
#define HPLREPRO_CLSIM_COALESCING_HPP

/// \file coalescing.hpp
/// Warp-level memory coalescing analysis.
///
/// GPUs service the global-memory accesses of a warp in units of aligned
/// segments (32 B on Fermi). When the 32 lanes of a warp touch consecutive
/// addresses, a 128 B request needs only 4 segments; a random gather needs
/// up to 32. This tracker replays that bookkeeping: for every memory
/// instruction (identified by pc_key) it collects the segments touched by
/// the current warp and counts one transaction per distinct segment.
///
/// Work-items of a group run sequentially in the simulator, so the tracker
/// keys the "current warp" on item_linear / warp_size and flushes when a
/// new warp starts issuing from the same instruction.
///
/// Every step is constant time per segment: a last-hit cache in front of
/// a scan of the kernel's few memory instructions finds the instruction's
/// slot, warp and segment numbers are shifts (warp and segment sizes must
/// be powers of two), and a per-(instruction, buffer) segment bitmap
/// answers "already counted?" with one bit test. The bits set for the
/// current warp are listed word by word, so a flush clears only what the
/// warp touched.

#include <cstdint>
#include <vector>

#include "clc/vm.hpp"

namespace hplrepro::clsim {

class CoalescingTracker final : public clc::MemTracker {
public:
  /// Throws InvalidArgument unless both sizes are powers of two.
  CoalescingTracker(unsigned warp_size, unsigned segment_bytes);

  /// The constructor's size check on its own, for code that accepts a
  /// device spec before any launch.
  static void check_sizes(unsigned warp_size, unsigned segment_bytes);

  void global_access(std::uint32_t pc_key, std::uint64_t item_linear,
                     std::uint64_t buffer, std::uint64_t offset,
                     std::uint32_t size, bool is_store) override;

  /// Flushes pending warps and returns the transaction count since the
  /// last reset.
  std::uint64_t finish();

  /// Clears all state (reuse across groups).
  void reset();

private:
  /// Segments one instruction touched in one buffer, one bit each, sized
  /// by the highest segment seen.
  struct SegmentMap {
    std::uint64_t buffer = 0;
    std::vector<std::uint64_t> words;
  };

  /// A bitmap word the current warp made nonzero.
  struct Touched {
    std::uint32_t map;
    std::uint64_t word;
  };

  struct Slot {
    std::uint32_t pc_key = 0;
    std::uint64_t warp = UINT64_MAX;
    std::uint64_t pending = 0;  // distinct segments of the current warp
    std::uint32_t last_map = 0;
    std::vector<SegmentMap> maps;
    std::vector<Touched> touched;
  };

  Slot& slot_for(std::uint32_t pc_key);
  void flush(Slot& slot);

  unsigned warp_shift_;
  unsigned segment_shift_;
  std::vector<Slot> slots_;
  std::uint32_t last_slot_ = 0;
  std::uint64_t transactions_ = 0;
};

}  // namespace hplrepro::clsim

#endif  // HPLREPRO_CLSIM_COALESCING_HPP
