#include "clsim/coalescing.hpp"

#include <bit>
#include <string>

#include "support/error.hpp"

namespace hplrepro::clsim {

namespace {

unsigned exact_log2(unsigned value, const char* what) {
  if (!std::has_single_bit(value)) {
    throw InvalidArgument(std::string(what) + " must be a power of two, got " +
                          std::to_string(value));
  }
  return static_cast<unsigned>(std::countr_zero(value));
}

}  // namespace

CoalescingTracker::CoalescingTracker(unsigned warp_size,
                                     unsigned segment_bytes)
    : warp_shift_(exact_log2(warp_size, "warp size")),
      segment_shift_(exact_log2(segment_bytes, "segment size")) {}

void CoalescingTracker::check_sizes(unsigned warp_size,
                                    unsigned segment_bytes) {
  exact_log2(warp_size, "warp size");
  exact_log2(segment_bytes, "segment size");
}

CoalescingTracker::Slot& CoalescingTracker::slot_for(std::uint32_t pc_key) {
  // A loop around one memory instruction hits the same slot every access.
  // A kernel has a handful of memory instructions (at most 8 in any
  // perfbench workload), so a scan finds the others.
  if (slots_.empty() || slots_[last_slot_].pc_key != pc_key) {
    std::uint32_t s = 0;
    while (s < slots_.size() && slots_[s].pc_key != pc_key) ++s;
    if (s == slots_.size()) slots_.emplace_back().pc_key = pc_key;
    last_slot_ = s;
  }
  return slots_[last_slot_];
}

void CoalescingTracker::flush(Slot& slot) {
  transactions_ += slot.pending;
  slot.pending = 0;
  for (const Touched& t : slot.touched) slot.maps[t.map].words[t.word] = 0;
  slot.touched.clear();
}

void CoalescingTracker::global_access(std::uint32_t pc_key,
                                      std::uint64_t item_linear,
                                      std::uint64_t buffer,
                                      std::uint64_t offset, std::uint32_t size,
                                      bool /*is_store*/) {
  Slot& slot = slot_for(pc_key);
  const std::uint64_t warp = item_linear >> warp_shift_;
  if (warp != slot.warp) {
    flush(slot);
    slot.warp = warp;
  }

  // Accesses to two different buffers never merge: each buffer has its
  // own bitmap. An instruction almost always addresses one buffer.
  if (slot.maps.empty() || slot.maps[slot.last_map].buffer != buffer) {
    std::uint32_t m = 0;
    while (m < slot.maps.size() && slot.maps[m].buffer != buffer) ++m;
    if (m == slot.maps.size()) slot.maps.push_back(SegmentMap{buffer, {}});
    slot.last_map = m;
  }
  SegmentMap& map = slot.maps[slot.last_map];

  const std::uint64_t first = offset >> segment_shift_;
  const std::uint64_t last = (offset + size - 1) >> segment_shift_;
  if ((last >> 6) >= map.words.size()) map.words.resize((last >> 6) + 1);
  for (std::uint64_t seg = first; seg <= last; ++seg) {
    std::uint64_t& word = map.words[seg >> 6];
    const std::uint64_t bit = 1ull << (seg & 63);
    if (word & bit) continue;
    if (word == 0) slot.touched.push_back(Touched{slot.last_map, seg >> 6});
    word |= bit;
    ++slot.pending;
  }
}

std::uint64_t CoalescingTracker::finish() {
  for (Slot& slot : slots_) {
    flush(slot);
    slot.warp = UINT64_MAX;
  }
  const std::uint64_t result = transactions_;
  transactions_ = 0;
  return result;
}

void CoalescingTracker::reset() {
  slots_.clear();
  last_slot_ = 0;
  transactions_ = 0;
}

}  // namespace hplrepro::clsim
