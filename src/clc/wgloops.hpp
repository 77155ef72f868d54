#ifndef HPLREPRO_CLC_WGLOOPS_HPP
#define HPLREPRO_CLC_WGLOOPS_HPP

/// \file wgloops.hpp
/// Work-group compilation analysis (pocl-style work-item loops).
///
/// A kernel's register code is conceptually split at every `barrier()`
/// into regions; the register VM (WorkGroupVM, vm.hpp) then runs each
/// region as a loop over all items of a group on one shared activation
/// instead of one suspendable activation per item. For that to be sound,
/// the only per-item state the loop has to carry across a region boundary
/// is the set of registers live at a region entry — everything else is
/// either written before read inside the region (shared file is fine) or
/// lives in the item's private arena.
///
/// This pass computes, per kernel:
///   * eligibility (all barriers in top-level kernel code, well-formed
///     blocks; ineligible kernels run on the stack interpreter),
///   * the region count (resume points: block 0 + each barrier's resume
///     block),
///   * the live-register union over all region entries — the per-item
///     spill set.
///
/// Classic backward dataflow liveness over the basic blocks produced by
/// lower_module; runs at build time, after register lowering.

#include "clc/bytecode.hpp"

namespace hplrepro::clc {

/// Fills `module.wg_info` (parallel to `module.functions`) from the
/// register form. Requires module.has_reg_form(); a module without it is
/// left untouched. Non-kernel functions and ineligible kernels get a
/// default (ineligible) entry — the executor runs those kernels on the
/// stack interpreter. clc::compile calls this after every successful
/// lower_module.
void analyze_wg_loops(Module& module);

}  // namespace hplrepro::clc

#endif  // HPLREPRO_CLC_WGLOOPS_HPP
