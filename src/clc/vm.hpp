#ifndef HPLREPRO_CLC_VM_HPP
#define HPLREPRO_CLC_VM_HPP

/// \file vm.hpp
/// The clc virtual machines: WorkGroupVM runs the register form of every
/// kernel the work-group analysis accepts, one whole work-group per call;
/// WorkItemVM, the stack reference interpreter, runs everything else
/// (-cl-interp=stack, a failed lowering, a kernel the analysis rejects)
/// and is the oracle of the differential tests.
///
/// A WorkItemVM work-item is a resumable activation: its operand stack,
/// call frames and private arena are plain data members, so executing
/// `barrier()` simply returns control to the caller (the clsim group
/// scheduler) with RunStatus::Barrier; calling run() again resumes after
/// the barrier once the whole group has arrived. No OS threads or fibers
/// are involved.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "clc/bytecode.hpp"
#include "clc/stats.hpp"
#include "support/error.hpp"

namespace hplrepro::clc {

/// Thrown when a kernel performs an invalid operation at run time
/// (out-of-bounds access, stack overflow, exhausted fuel, ...).
class TrapError : public Error {
public:
  explicit TrapError(const std::string& what) : Error("kernel trap: " + what) {}
};

struct LaunchInfo {
  int work_dim = 1;
  std::uint64_t global_size[3] = {1, 1, 1};
  std::uint64_t local_size[3] = {1, 1, 1};
  std::uint64_t num_groups[3] = {1, 1, 1};
};

struct WorkItemInfo {
  std::uint64_t global_id[3] = {0, 0, 0};
  std::uint64_t local_id[3] = {0, 0, 0};
  std::uint64_t group_id[3] = {0, 0, 0};
  std::uint64_t linear_in_group = 0;  // used by the coalescing tracker
};

/// Memory environment shared by the work-items of one launch/group.
struct MemoryEnv {
  /// Buffer table for Global/Constant pointers (index = PtrSpace buffer id).
  std::span<std::span<std::byte>> buffers;
  /// This group's __local arena.
  std::span<std::byte> local;
};

/// Observer for global-memory accesses, used for coalescing analysis.
/// `pc_key` identifies the memory instruction (function index << 20 | pc).
/// Both interpreters report an access only after its bounds check passed,
/// so `offset + size` never exceeds the buffer's size.
class MemTracker {
public:
  virtual ~MemTracker() = default;
  virtual void global_access(std::uint32_t pc_key, std::uint64_t item_linear,
                             std::uint64_t buffer, std::uint64_t offset,
                             std::uint32_t size, bool is_store) = 0;
};

enum class RunStatus { Done, Barrier };

class WorkItemVM {
public:
  /// Prepares the VM to execute `kernel` from `module` with the given
  /// argument values (scalars or encoded pointers), one per parameter.
  void reset(const Module& module, const CompiledFunction& kernel,
             std::span<const Value> args);

  /// Runs until the kernel finishes (Done) or suspends at a barrier
  /// (Barrier). Resumable: call again after a Barrier return.
  RunStatus run(const MemoryEnv& mem, const LaunchInfo& launch,
                const WorkItemInfo& item, ExecStats& stats,
                MemTracker* tracker);

  /// Flags of the barrier that suspended the item (valid after Barrier).
  std::uint64_t barrier_flags() const { return barrier_flags_; }

  /// Upper bound on dynamic instructions per run() call; a trap fires when
  /// exceeded (guards against infinite loops in user kernels).
  void set_fuel(std::uint64_t fuel) { fuel_ = fuel; }

private:
  struct Frame {
    const CompiledFunction* fn = nullptr;
    std::size_t pc = 0;
    std::size_t slot_base = 0;
    std::size_t priv_base = 0;
  };

  const Module* module_ = nullptr;
  std::vector<Value> stack_;
  std::vector<Frame> frames_;
  std::vector<Value> slots_;
  std::vector<std::byte> private_arena_;
  std::uint64_t barrier_flags_ = 0;
  std::uint64_t fuel_ = 1ull << 62;
};

/// The register interpreter: executes the register form
/// (Module::reg_functions) produced by lower_module with a direct-threaded
/// dispatch loop (computed goto under GCC/Clang; define
/// HPLREPRO_VM_FORCE_SWITCH to get the portable switch loop), running all
/// items of a work-group on ONE activation by looping each
/// barrier-delimited region over the group (pocl-style work-item loops) —
/// no per-item register files and no suspend/resume machinery. Per-item
/// state is reduced to the spill rows of the registers live across region
/// boundaries (WgInfo, computed at build time by analyze_wg_loops) plus a
/// private arena per item.
///
/// Drop-in equivalent of WorkItemVM, the stack reference interpreter:
/// bit-identical results, identical ExecStats (accounted per basic block
/// from the histograms precomputed at lowering time), identical trap
/// messages. The fuel budget is debited per item per region (each
/// item-region entry gets the full budget, exactly like one WorkItemVM
/// run() call between barriers).
class WorkGroupVM {
public:
  /// Binds the VM to a kernel (must satisfy module.wg_eligible) and its
  /// launch arguments for groups of `group_items` work-items. Called
  /// once per launch chunk; run_group reuses all scratch across groups.
  void prepare(const Module& module, const CompiledFunction& kernel,
               std::span<const Value> args, std::size_t group_items);

  /// Runs one whole work-group to completion. `items` must point at
  /// group_items WorkItemInfo entries. Throws TrapError on kernel traps,
  /// including the divergent-barrier condition (a region exit taken by
  /// some items while others reached a barrier).
  void run_group(const MemoryEnv& mem, const LaunchInfo& launch,
                 const WorkItemInfo* items, ExecStats& stats,
                 MemTracker* tracker);

  void set_fuel(std::uint64_t fuel) { fuel_ = fuel; }

  /// One trip per work-item run through the region loops; accumulated over
  /// every group this VM executed (the vm.wg_loop_trips metric).
  std::uint64_t loop_trips() const { return loop_trips_; }
  /// Item-region executions: loop_trips plus one per barrier resumption
  /// (the vm.regions metric).
  std::uint64_t regions_executed() const { return regions_executed_; }

private:
  /// Sentinel "no return register" for Frame::ret_reg.
  static constexpr std::uint32_t kNoRet = 0xFFFFFFFFu;

  struct Frame {
    const RegFunction* fn = nullptr;
    std::uint32_t pc = 0;  // saved across calls; live in run_phase's locals
    std::uint32_t ret_reg = kNoRet;  // absolute index into regs_, or kNoRet
    std::size_t base = 0;            // this frame's register window in regs_
    std::size_t priv_base = 0;
  };

  /// The dispatch loop: runs every unfinished item of the group up to its
  /// next barrier or its exit (one phase of run_group).
  void run_phase(const MemoryEnv& mem, const LaunchInfo& launch,
                 const WorkItemInfo* items, ExecStats& stats,
                 MemTracker* tracker);

  const Module* module_ = nullptr;
  const RegFunction* kernel_fn_ = nullptr;
  const WgInfo* wg_ = nullptr;
  bool uses_barrier_ = false;
  std::uint64_t kernel_priv_bytes_ = 0;
  std::size_t group_items_ = 0;

  std::vector<Value> regs_;       // ONE shared register file for the group
  std::vector<Frame> frames_;
  std::vector<Value> args_;        // launch arguments, installed per group
  std::vector<Value> spill_init_;  // per-item row template: args/zeros
  std::vector<Value> spills_;      // group_items x live_regs rows
  std::size_t spill_stride_ = 0;   // row width (= wg_->live_regs.size())

  // WgInfo's per-entry restore/save lists flattened by prepare() into one
  // contiguous pair array with per-block spans, so the region-switch hot
  // path does a single indexed load instead of chasing entry_index into a
  // vector of vectors.
  struct SpillSpan {
    std::uint32_t begin = 0;
    std::uint32_t len = 0;
  };
  std::vector<std::pair<std::uint16_t, std::uint16_t>> spill_pairs_;
  std::vector<SpillSpan> restore_by_block_;
  std::vector<SpillSpan> save_by_block_;
  std::vector<std::vector<std::byte>> privs_;  // per-item private arenas
  std::vector<std::uint32_t> pending_;  // per-item resume block
  std::vector<char> done_;
  std::uint64_t fuel_ = 1ull << 62;

  // Phase bookkeeping for the divergent-barrier trap.
  std::size_t done_count_ = 0;
  std::size_t phase_finished_ = 0;
  std::size_t phase_at_barrier_ = 0;

  std::uint64_t loop_trips_ = 0;
  std::uint64_t regions_executed_ = 0;
};

}  // namespace hplrepro::clc

#endif  // HPLREPRO_CLC_VM_HPP
