#include "clc/vm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "clc/builtins.hpp"
#include "clc/fold.hpp"

namespace hplrepro::clc {

namespace {

// op_class_of is shared with the lowering pass (bytecode.cpp) so the
// block-level accounting of the register interpreter matches this loop's
// per-instruction counting exactly.
struct OpClassTable {
  OpClass cls[256];
  OpClassTable() {
    for (int i = 0; i < 256; ++i) cls[i] = OpClass::Control;
    for (int i = 0; i < kOpCount; ++i) {
      cls[i] = op_class_of(static_cast<Op>(i));
    }
  }
};
const OpClassTable kOpClass;

// checked_trunc_i64 / checked_trunc_u64 live in fold.hpp so the optimizer
// folds float->int conversions with exactly the VM's semantics.

double apply_math_builtin_d(Builtin id, const double* a) {
  switch (id) {
    case Builtin::Sqrt: return std::sqrt(a[0]);
    case Builtin::Rsqrt: return 1.0 / std::sqrt(a[0]);
    case Builtin::Fabs: return std::fabs(a[0]);
    case Builtin::Exp: return std::exp(a[0]);
    case Builtin::Exp2: return std::exp2(a[0]);
    case Builtin::Log: return std::log(a[0]);
    case Builtin::Log2: return std::log2(a[0]);
    case Builtin::Log10: return std::log10(a[0]);
    case Builtin::Sin: return std::sin(a[0]);
    case Builtin::Cos: return std::cos(a[0]);
    case Builtin::Tan: return std::tan(a[0]);
    case Builtin::Asin: return std::asin(a[0]);
    case Builtin::Acos: return std::acos(a[0]);
    case Builtin::Atan: return std::atan(a[0]);
    case Builtin::Floor: return std::floor(a[0]);
    case Builtin::Ceil: return std::ceil(a[0]);
    case Builtin::Trunc: return std::trunc(a[0]);
    case Builtin::Round: return std::round(a[0]);
    case Builtin::Pow: return std::pow(a[0], a[1]);
    case Builtin::Atan2: return std::atan2(a[0], a[1]);
    case Builtin::Fmod: return std::fmod(a[0], a[1]);
    case Builtin::Fmin: return std::fmin(a[0], a[1]);
    case Builtin::Fmax: return std::fmax(a[0], a[1]);
    case Builtin::Hypot: return std::hypot(a[0], a[1]);
    case Builtin::Fma: return std::fma(a[0], a[1], a[2]);
    case Builtin::Mad: return a[0] * a[1] + a[2];
    case Builtin::Min: return std::fmin(a[0], a[1]);
    case Builtin::Max: return std::fmax(a[0], a[1]);
    case Builtin::Clamp: return std::fmin(std::fmax(a[0], a[1]), a[2]);
    default:
      throw InternalError("apply_math_builtin_d: bad id");
  }
}

float apply_math_builtin_f(Builtin id, const float* a) {
  switch (id) {
    case Builtin::Sqrt: return std::sqrt(a[0]);
    case Builtin::Rsqrt: return 1.0f / std::sqrt(a[0]);
    case Builtin::Fabs: return std::fabs(a[0]);
    case Builtin::Exp: return std::exp(a[0]);
    case Builtin::Exp2: return std::exp2(a[0]);
    case Builtin::Log: return std::log(a[0]);
    case Builtin::Log2: return std::log2(a[0]);
    case Builtin::Log10: return std::log10(a[0]);
    case Builtin::Sin: return std::sin(a[0]);
    case Builtin::Cos: return std::cos(a[0]);
    case Builtin::Tan: return std::tan(a[0]);
    case Builtin::Asin: return std::asin(a[0]);
    case Builtin::Acos: return std::acos(a[0]);
    case Builtin::Atan: return std::atan(a[0]);
    case Builtin::Floor: return std::floor(a[0]);
    case Builtin::Ceil: return std::ceil(a[0]);
    case Builtin::Trunc: return std::trunc(a[0]);
    case Builtin::Round: return std::round(a[0]);
    case Builtin::Pow: return std::pow(a[0], a[1]);
    case Builtin::Atan2: return std::atan2(a[0], a[1]);
    case Builtin::Fmod: return std::fmod(a[0], a[1]);
    case Builtin::Fmin: return std::fmin(a[0], a[1]);
    case Builtin::Fmax: return std::fmax(a[0], a[1]);
    case Builtin::Hypot: return std::hypot(a[0], a[1]);
    case Builtin::Fma: return std::fma(a[0], a[1], a[2]);
    case Builtin::Mad: return a[0] * a[1] + a[2];
    case Builtin::Min: return std::fmin(a[0], a[1]);
    case Builtin::Max: return std::fmax(a[0], a[1]);
    case Builtin::Clamp: return std::fmin(std::fmax(a[0], a[1]), a[2]);
    default:
      throw InternalError("apply_math_builtin_f: bad id");
  }
}

// is_transcendental lives in builtins.cpp (shared with the lowering pass).

[[noreturn]] void trap(const char* what) { throw TrapError(what); }

// Resolves a pointer to host memory, bounds-checked. Both interpreters
// call it, so they raise the same traps.
inline std::byte* resolve(const MemoryEnv& mem, std::vector<std::byte>& priv,
                          std::uint64_t ptr, std::size_t size) {
  const std::uint64_t offset = pointer_offset(ptr);
  switch (pointer_space(ptr)) {
    case PtrSpace::Global:
    case PtrSpace::Constant: {
      const std::uint64_t buffer = pointer_buffer(ptr);
      if (buffer >= mem.buffers.size()) trap("bad buffer index");
      auto span = mem.buffers[buffer];
      if (offset + size > span.size()) trap("global access out of bounds");
      return span.data() + offset;
    }
    case PtrSpace::Local:
      if (offset + size > mem.local.size()) trap("local access out of bounds");
      return mem.local.data() + offset;
    case PtrSpace::Private:
      if (offset + size > priv.size()) trap("private access out of bounds");
      return priv.data() + offset;
  }
  trap("bad pointer space");
}

// Accounts a memory access in the stats and the coalescing tracker. Called
// after resolve(), so the tracker only ever sees in-bounds offsets.
inline void note_access(ExecStats& stats, MemTracker* tracker,
                        std::uint64_t item_linear, std::uint64_t ptr,
                        std::uint32_t size, bool store, std::uint32_t pc_key) {
  switch (pointer_space(ptr)) {
    case PtrSpace::Global:
    case PtrSpace::Constant:
      if (store) {
        stats.global_store_bytes += size;
      } else {
        stats.global_load_bytes += size;
      }
      ++stats.global_accesses;
      if (tracker) {
        tracker->global_access(pc_key, item_linear, pointer_buffer(ptr),
                               pointer_offset(ptr), size, store);
      }
      break;
    case PtrSpace::Local:
      stats.local_bytes += size;
      ++stats.local_accesses;
      break;
    case PtrSpace::Private:
      stats.private_bytes += size;
      break;
  }
}

}  // namespace

void WorkItemVM::reset(const Module& module, const CompiledFunction& kernel,
                       std::span<const Value> args) {
  if (args.size() != kernel.params.size()) {
    throw InternalError("WorkItemVM::reset: argument count mismatch");
  }
  module_ = &module;
  stack_.clear();
  stack_.reserve(64);
  frames_.clear();
  frames_.push_back(Frame{&kernel, 0, 0, 0});
  slots_.assign(static_cast<std::size_t>(kernel.num_slots), Value{});
  for (std::size_t i = 0; i < args.size(); ++i) slots_[i] = args[i];
  private_arena_.assign(kernel.private_bytes, std::byte{0});
  barrier_flags_ = 0;
}

RunStatus WorkItemVM::run(const MemoryEnv& mem, const LaunchInfo& launch,
                          const WorkItemInfo& item, ExecStats& stats,
                          MemTracker* tracker) {
  std::uint64_t fuel = fuel_;

  // Local aliases for the hot loop.
  auto push = [&](Value v) { stack_.push_back(v); };
  auto pop = [&]() -> Value {
    Value v = stack_.back();
    stack_.pop_back();
    return v;
  };
  auto top = [&]() -> Value& { return stack_.back(); };

  while (!frames_.empty()) {
    Frame& frame = frames_.back();
    const CompiledFunction& fn = *frame.fn;
    if (frame.pc >= fn.code.size()) {
      // Fell off the end of a void function.
      frames_.pop_back();
      continue;
    }
    const Instr instr = fn.code[frame.pc];
    const std::uint32_t pc_key =
        (static_cast<std::uint32_t>(frame.fn - module_->functions.data())
         << 20) |
        static_cast<std::uint32_t>(frame.pc);
    ++frame.pc;

    if (fuel-- == 0) trap("instruction budget exhausted (infinite loop?)");

    switch (kOpClass.cls[static_cast<int>(instr.op)]) {
      case OpClass::IntAlu: ++stats.int_ops; break;
      case OpClass::FloatAlu: ++stats.float_ops; break;
      case OpClass::DoubleAlu: ++stats.double_ops; break;
      default: ++stats.control_ops; break;  // memory adjusted in note_access
    }

    switch (instr.op) {
      case Op::Nop:
        break;
      case Op::PushI: {
        Value v;
        v.i64 = instr.imm;
        push(v);
        break;
      }
      case Op::PushF: {
        Value v;
        v.f32 = std::bit_cast<float>(static_cast<std::uint32_t>(instr.imm));
        push(v);
        break;
      }
      case Op::PushD: {
        Value v;
        v.f64 = std::bit_cast<double>(instr.imm);
        push(v);
        break;
      }
      case Op::Dup:
        push(stack_.back());
        break;
      case Op::Pop:
        stack_.pop_back();
        break;
      case Op::Swap:
        std::swap(stack_[stack_.size() - 1], stack_[stack_.size() - 2]);
        break;
      case Op::LoadSlot:
        push(slots_[frame.slot_base + static_cast<std::size_t>(instr.a)]);
        break;
      case Op::StoreSlot:
        slots_[frame.slot_base + static_cast<std::size_t>(instr.a)] = pop();
        break;
      case Op::PtrAdd: {
        const std::int64_t index = pop().i64;
        top().u64 = pointer_add(top().u64, wrap_mul(index, instr.a));
        break;
      }
      case Op::LocalPtr: {
        Value v;
        v.u64 = make_pointer(PtrSpace::Local, 0,
                             static_cast<std::uint64_t>(instr.imm));
        push(v);
        break;
      }
      case Op::PrivatePtr: {
        Value v;
        v.u64 = make_pointer(
            PtrSpace::Private, 0,
            frame.priv_base + static_cast<std::uint64_t>(instr.imm));
        push(v);
        break;
      }

#define HPLREPRO_LOAD_CASE(OPNAME, CTYPE, FIELD, EXT)                       \
  case Op::OPNAME: {                                                        \
    const std::uint64_t ptr = pop().u64;                                    \
    const std::byte* src =                                                  \
        resolve(mem, private_arena_, ptr, sizeof(CTYPE));                   \
    note_access(stats, tracker, item.linear_in_group, ptr, sizeof(CTYPE),   \
                false, pc_key);                                             \
    CTYPE raw;                                                              \
    std::memcpy(&raw, src, sizeof(CTYPE));                                  \
    Value v;                                                                \
    v.FIELD = EXT(raw);                                                     \
    push(v);                                                                \
    break;                                                                  \
  }
      HPLREPRO_LOAD_CASE(LoadI8, std::int8_t, i64, static_cast<std::int64_t>)
      HPLREPRO_LOAD_CASE(LoadU8, std::uint8_t, u64, static_cast<std::uint64_t>)
      HPLREPRO_LOAD_CASE(LoadI16, std::int16_t, i64, static_cast<std::int64_t>)
      HPLREPRO_LOAD_CASE(LoadU16, std::uint16_t, u64, static_cast<std::uint64_t>)
      HPLREPRO_LOAD_CASE(LoadI32, std::int32_t, i64, static_cast<std::int64_t>)
      HPLREPRO_LOAD_CASE(LoadU32, std::uint32_t, u64, static_cast<std::uint64_t>)
      HPLREPRO_LOAD_CASE(LoadI64, std::int64_t, i64, static_cast<std::int64_t>)
      HPLREPRO_LOAD_CASE(LoadF32, float, f32, )
      HPLREPRO_LOAD_CASE(LoadF64, double, f64, )
#undef HPLREPRO_LOAD_CASE

#define HPLREPRO_STORE_CASE(OPNAME, CTYPE, FIELD)                           \
  case Op::OPNAME: {                                                        \
    const Value v = pop();                                                  \
    const std::uint64_t ptr = pop().u64;                                    \
    std::byte* dst = resolve(mem, private_arena_, ptr, sizeof(CTYPE));      \
    note_access(stats, tracker, item.linear_in_group, ptr, sizeof(CTYPE),   \
                true, pc_key);                                              \
    const CTYPE raw = static_cast<CTYPE>(v.FIELD);                          \
    std::memcpy(dst, &raw, sizeof(CTYPE));                                  \
    break;                                                                  \
  }
      HPLREPRO_STORE_CASE(StoreI8, std::int8_t, i64)
      HPLREPRO_STORE_CASE(StoreI16, std::int16_t, i64)
      HPLREPRO_STORE_CASE(StoreI32, std::int32_t, i64)
      HPLREPRO_STORE_CASE(StoreI64, std::int64_t, i64)
      HPLREPRO_STORE_CASE(StoreF32, float, f32)
      HPLREPRO_STORE_CASE(StoreF64, double, f64)
#undef HPLREPRO_STORE_CASE

#define HPLREPRO_BIN_CASE(OPNAME, FIELD, EXPR)                              \
  case Op::OPNAME: {                                                        \
    const Value b = pop();                                                  \
    Value& a = top();                                                       \
    a.FIELD = (EXPR);                                                       \
    break;                                                                  \
  }
      HPLREPRO_BIN_CASE(AddI, i64, wrap_add(a.i64, b.i64))
      HPLREPRO_BIN_CASE(SubI, i64, wrap_sub(a.i64, b.i64))
      HPLREPRO_BIN_CASE(MulI, i64, wrap_mul(a.i64, b.i64))
      HPLREPRO_BIN_CASE(DivI, i64, b.i64 == 0 ? 0 : (a.i64 == INT64_MIN && b.i64 == -1 ? a.i64 : a.i64 / b.i64))
      HPLREPRO_BIN_CASE(DivU, u64, b.u64 == 0 ? 0 : a.u64 / b.u64)
      HPLREPRO_BIN_CASE(RemI, i64, b.i64 == 0 ? 0 : (a.i64 == INT64_MIN && b.i64 == -1 ? 0 : a.i64 % b.i64))
      HPLREPRO_BIN_CASE(RemU, u64, b.u64 == 0 ? 0 : a.u64 % b.u64)
      HPLREPRO_BIN_CASE(AndI, u64, a.u64 & b.u64)
      HPLREPRO_BIN_CASE(OrI, u64, a.u64 | b.u64)
      HPLREPRO_BIN_CASE(XorI, u64, a.u64 ^ b.u64)
      HPLREPRO_BIN_CASE(ShlI, u64, a.u64 << (b.u64 & 63))
      HPLREPRO_BIN_CASE(ShrI, i64, a.i64 >> (b.u64 & 63))
      HPLREPRO_BIN_CASE(ShrU, u64, a.u64 >> (b.u64 & 63))
      HPLREPRO_BIN_CASE(AddF, f32, a.f32 + b.f32)
      HPLREPRO_BIN_CASE(SubF, f32, a.f32 - b.f32)
      HPLREPRO_BIN_CASE(MulF, f32, a.f32 * b.f32)
      HPLREPRO_BIN_CASE(DivF, f32, a.f32 / b.f32)
      HPLREPRO_BIN_CASE(AddD, f64, a.f64 + b.f64)
      HPLREPRO_BIN_CASE(SubD, f64, a.f64 - b.f64)
      HPLREPRO_BIN_CASE(MulD, f64, a.f64 * b.f64)
      HPLREPRO_BIN_CASE(DivD, f64, a.f64 / b.f64)
      HPLREPRO_BIN_CASE(EqI, i64, a.i64 == b.i64 ? 1 : 0)
      HPLREPRO_BIN_CASE(NeI, i64, a.i64 != b.i64 ? 1 : 0)
      HPLREPRO_BIN_CASE(LtI, i64, a.i64 < b.i64 ? 1 : 0)
      HPLREPRO_BIN_CASE(LeI, i64, a.i64 <= b.i64 ? 1 : 0)
      HPLREPRO_BIN_CASE(GtI, i64, a.i64 > b.i64 ? 1 : 0)
      HPLREPRO_BIN_CASE(GeI, i64, a.i64 >= b.i64 ? 1 : 0)
      HPLREPRO_BIN_CASE(LtU, i64, a.u64 < b.u64 ? 1 : 0)
      HPLREPRO_BIN_CASE(LeU, i64, a.u64 <= b.u64 ? 1 : 0)
      HPLREPRO_BIN_CASE(GtU, i64, a.u64 > b.u64 ? 1 : 0)
      HPLREPRO_BIN_CASE(GeU, i64, a.u64 >= b.u64 ? 1 : 0)
      HPLREPRO_BIN_CASE(EqF, i64, a.f32 == b.f32 ? 1 : 0)
      HPLREPRO_BIN_CASE(NeF, i64, a.f32 != b.f32 ? 1 : 0)
      HPLREPRO_BIN_CASE(LtF, i64, a.f32 < b.f32 ? 1 : 0)
      HPLREPRO_BIN_CASE(LeF, i64, a.f32 <= b.f32 ? 1 : 0)
      HPLREPRO_BIN_CASE(GtF, i64, a.f32 > b.f32 ? 1 : 0)
      HPLREPRO_BIN_CASE(GeF, i64, a.f32 >= b.f32 ? 1 : 0)
      HPLREPRO_BIN_CASE(EqD, i64, a.f64 == b.f64 ? 1 : 0)
      HPLREPRO_BIN_CASE(NeD, i64, a.f64 != b.f64 ? 1 : 0)
      HPLREPRO_BIN_CASE(LtD, i64, a.f64 < b.f64 ? 1 : 0)
      HPLREPRO_BIN_CASE(LeD, i64, a.f64 <= b.f64 ? 1 : 0)
      HPLREPRO_BIN_CASE(GtD, i64, a.f64 > b.f64 ? 1 : 0)
      HPLREPRO_BIN_CASE(GeD, i64, a.f64 >= b.f64 ? 1 : 0)
#undef HPLREPRO_BIN_CASE

      case Op::NegI: top().i64 = wrap_neg(top().i64); break;
      case Op::NotI: top().u64 = ~top().u64; break;
      case Op::NegF: top().f32 = -top().f32; break;
      case Op::NegD: top().f64 = -top().f64; break;
      case Op::LNot: top().i64 = top().i64 == 0 ? 1 : 0; break;
      case Op::Bool: top().i64 = top().i64 != 0 ? 1 : 0; break;

      case Op::Sext8: top().i64 = static_cast<std::int8_t>(top().i64); break;
      case Op::Sext16: top().i64 = static_cast<std::int16_t>(top().i64); break;
      case Op::Sext32: top().i64 = static_cast<std::int32_t>(top().i64); break;
      case Op::Zext8: top().u64 &= 0xFFull; break;
      case Op::Zext16: top().u64 &= 0xFFFFull; break;
      case Op::Zext32: top().u64 &= 0xFFFFFFFFull; break;
      case Op::Zext1: top().u64 &= 1ull; break;

      case Op::I2F: top().f32 = static_cast<float>(top().i64); break;
      case Op::I2D: top().f64 = static_cast<double>(top().i64); break;
      case Op::U2F: top().f32 = static_cast<float>(top().u64); break;
      case Op::U2D: top().f64 = static_cast<double>(top().u64); break;
      case Op::F2I: top().i64 = checked_trunc_i64(top().f32); break;
      case Op::D2I: top().i64 = checked_trunc_i64(top().f64); break;
      case Op::F2U: top().u64 = checked_trunc_u64(top().f32); break;
      case Op::D2U: top().u64 = checked_trunc_u64(top().f64); break;
      case Op::F2D: top().f64 = static_cast<double>(top().f32); break;
      case Op::D2F: top().f32 = static_cast<float>(top().f64); break;

      case Op::Jmp:
        frame.pc = static_cast<std::size_t>(instr.a);
        break;
      case Op::JmpIfZero:
        if (pop().i64 == 0) frame.pc = static_cast<std::size_t>(instr.a);
        break;
      case Op::JmpIfNonZero:
        if (pop().i64 != 0) frame.pc = static_cast<std::size_t>(instr.a);
        break;

      case Op::Call: {
        const CompiledFunction& callee =
            module_->functions[static_cast<std::size_t>(instr.a)];
        const std::size_t nargs = callee.params.size();
        if (frames_.size() >= 64) trap("call stack overflow");
        Frame next;
        next.fn = &callee;
        next.pc = 0;
        next.slot_base = slots_.size();
        next.priv_base = frame.priv_base + fn.private_bytes;
        slots_.resize(next.slot_base +
                      static_cast<std::size_t>(callee.num_slots));
        if (private_arena_.size() < next.priv_base + callee.private_bytes) {
          private_arena_.resize(next.priv_base + callee.private_bytes);
        }
        for (std::size_t i = 0; i < nargs; ++i) {
          slots_[next.slot_base + nargs - 1 - i] = pop();
        }
        frames_.push_back(next);
        break;
      }
      case Op::Ret: {
        // Return value stays on the operand stack for the caller.
        slots_.resize(frame.slot_base);
        frames_.pop_back();
        break;
      }
      case Op::RetVoid:
        slots_.resize(frame.slot_base);
        frames_.pop_back();
        break;

      case Op::BarrierOp: {
        barrier_flags_ = pop().u64;
        ++stats.barriers_executed;
        return RunStatus::Barrier;
      }

      case Op::WorkItemFn: {
        const auto id = static_cast<Builtin>(instr.a);
        const std::uint64_t dim = pop().u64;
        const std::size_t d = dim < 3 ? static_cast<std::size_t>(dim) : 0;
        Value v;
        switch (id) {
          case Builtin::GetWorkDim:
            v.u64 = static_cast<std::uint64_t>(launch.work_dim);
            break;
          case Builtin::GetGlobalId: v.u64 = item.global_id[d]; break;
          case Builtin::GetLocalId: v.u64 = item.local_id[d]; break;
          case Builtin::GetGroupId: v.u64 = item.group_id[d]; break;
          case Builtin::GetGlobalSize: v.u64 = launch.global_size[d]; break;
          case Builtin::GetLocalSize: v.u64 = launch.local_size[d]; break;
          case Builtin::GetNumGroups: v.u64 = launch.num_groups[d]; break;
          default:
            trap("bad work-item function");
            v.u64 = 0;
        }
        push(v);
        break;
      }

      case Op::BuiltinOp: {
        const auto id = static_cast<Builtin>(instr.a);
        const BuiltinInfo& info = builtin_info(id);
        const int arity = info.arity;
        if (is_transcendental(id)) {
          ++stats.special_ops;
        } else if (instr.imm == 1) {
          ++stats.float_ops;
        } else if (instr.imm == 2) {
          ++stats.double_ops;
        } else {
          ++stats.int_ops;
        }
        switch (instr.imm) {
          case 1: {  // f32
            float a[3] = {0, 0, 0};
            for (int i = arity - 1; i >= 0; --i) a[i] = pop().f32;
            Value v;
            v.f32 = apply_math_builtin_f(id, a);
            push(v);
            break;
          }
          case 2: {  // f64
            double a[3] = {0, 0, 0};
            for (int i = arity - 1; i >= 0; --i) a[i] = pop().f64;
            Value v;
            v.f64 = apply_math_builtin_d(id, a);
            push(v);
            break;
          }
          case 0: {  // signed integer
            std::int64_t a[3] = {0, 0, 0};
            for (int i = arity - 1; i >= 0; --i) a[i] = pop().i64;
            Value v;
            switch (id) {
              case Builtin::Min: v.i64 = a[0] < a[1] ? a[0] : a[1]; break;
              case Builtin::Max: v.i64 = a[0] > a[1] ? a[0] : a[1]; break;
              case Builtin::Abs: v.i64 = wrap_abs(a[0]); break;
              case Builtin::Clamp:
                v.i64 = a[0] < a[1] ? a[1] : (a[0] > a[2] ? a[2] : a[0]);
                break;
              default:
                trap("bad integer builtin");
                v.i64 = 0;
            }
            push(v);
            break;
          }
          default: {  // unsigned integer
            std::uint64_t a[3] = {0, 0, 0};
            for (int i = arity - 1; i >= 0; --i) a[i] = pop().u64;
            Value v;
            switch (id) {
              case Builtin::Min: v.u64 = a[0] < a[1] ? a[0] : a[1]; break;
              case Builtin::Max: v.u64 = a[0] > a[1] ? a[0] : a[1]; break;
              case Builtin::Abs: v.u64 = a[0]; break;
              case Builtin::Clamp:
                v.u64 = a[0] < a[1] ? a[1] : (a[0] > a[2] ? a[2] : a[0]);
                break;
              default:
                trap("bad unsigned builtin");
                v.u64 = 0;
            }
            push(v);
            break;
          }
        }
        break;
      }

#define HPLREPRO_LIDX_CASE(OPNAME, CTYPE, FIELD, EXT)                       \
  case Op::OPNAME: {                                                        \
    const std::int64_t index = pop().i64;                                   \
    const std::uint64_t ptr =                                               \
        pointer_add(pop().u64, wrap_mul(index, instr.a));                   \
    const std::byte* src =                                                  \
        resolve(mem, private_arena_, ptr, sizeof(CTYPE));                   \
    note_access(stats, tracker, item.linear_in_group, ptr, sizeof(CTYPE),   \
                false, pc_key);                                             \
    CTYPE raw;                                                              \
    std::memcpy(&raw, src, sizeof(CTYPE));                                  \
    Value v;                                                                \
    v.FIELD = EXT(raw);                                                     \
    push(v);                                                                \
    ++stats.fused_ops;                                                      \
    break;                                                                  \
  }
      HPLREPRO_LIDX_CASE(LIdxI8, std::int8_t, i64, static_cast<std::int64_t>)
      HPLREPRO_LIDX_CASE(LIdxU8, std::uint8_t, u64,
                         static_cast<std::uint64_t>)
      HPLREPRO_LIDX_CASE(LIdxI16, std::int16_t, i64,
                         static_cast<std::int64_t>)
      HPLREPRO_LIDX_CASE(LIdxU16, std::uint16_t, u64,
                         static_cast<std::uint64_t>)
      HPLREPRO_LIDX_CASE(LIdxI32, std::int32_t, i64,
                         static_cast<std::int64_t>)
      HPLREPRO_LIDX_CASE(LIdxU32, std::uint32_t, u64,
                         static_cast<std::uint64_t>)
      HPLREPRO_LIDX_CASE(LIdxI64, std::int64_t, i64,
                         static_cast<std::int64_t>)
      HPLREPRO_LIDX_CASE(LIdxF32, float, f32, )
      HPLREPRO_LIDX_CASE(LIdxF64, double, f64, )
#undef HPLREPRO_LIDX_CASE

#define HPLREPRO_SIDX_CASE(OPNAME, CTYPE, FIELD)                            \
  case Op::OPNAME: {                                                        \
    const Value v = pop();                                                  \
    const std::int64_t index = pop().i64;                                   \
    const std::uint64_t ptr =                                               \
        pointer_add(pop().u64, wrap_mul(index, instr.a));                   \
    std::byte* dst = resolve(mem, private_arena_, ptr, sizeof(CTYPE));      \
    note_access(stats, tracker, item.linear_in_group, ptr, sizeof(CTYPE),   \
                true, pc_key);                                              \
    const CTYPE raw = static_cast<CTYPE>(v.FIELD);                          \
    std::memcpy(dst, &raw, sizeof(CTYPE));                                  \
    ++stats.fused_ops;                                                      \
    break;                                                                  \
  }
      HPLREPRO_SIDX_CASE(SIdxI8, std::int8_t, i64)
      HPLREPRO_SIDX_CASE(SIdxI16, std::int16_t, i64)
      HPLREPRO_SIDX_CASE(SIdxI32, std::int32_t, i64)
      HPLREPRO_SIDX_CASE(SIdxI64, std::int64_t, i64)
      HPLREPRO_SIDX_CASE(SIdxF32, float, f32)
      HPLREPRO_SIDX_CASE(SIdxF64, double, f64)
#undef HPLREPRO_SIDX_CASE

      // Fused multiply-add: product then sum, two roundings, exactly the
      // unfused pair (see bytecode.hpp for the operand-order encoding).
      case Op::MadI: {
        if (instr.a == 0) {
          const Value z = pop();
          const Value y = pop();
          Value& x = top();
          x.i64 = wrap_add(wrap_mul(x.i64, y.i64), z.i64);
        } else {
          const Value y = pop();
          const Value x = pop();
          Value& z = top();
          z.i64 = wrap_add(z.i64, wrap_mul(x.i64, y.i64));
        }
        ++stats.fused_ops;
        break;
      }
      case Op::MadF: {
        // Product and sum as separate statements: must round twice, like
        // the unfused MulF; AddF pair (no FMA contraction).
        if (instr.a == 0) {
          const Value z = pop();
          const Value y = pop();
          Value& x = top();
          const float t = x.f32 * y.f32;
          x.f32 = t + z.f32;
        } else {
          const Value y = pop();
          const Value x = pop();
          Value& z = top();
          const float t = x.f32 * y.f32;
          z.f32 = z.f32 + t;
        }
        ++stats.fused_ops;
        break;
      }
      case Op::MadD: {
        if (instr.a == 0) {
          const Value z = pop();
          const Value y = pop();
          Value& x = top();
          const double t = x.f64 * y.f64;
          x.f64 = t + z.f64;
        } else {
          const Value y = pop();
          const Value x = pop();
          Value& z = top();
          const double t = x.f64 * y.f64;
          z.f64 = z.f64 + t;
        }
        ++stats.fused_ops;
        break;
      }
    }
  }

  return RunStatus::Done;
}

// --- Register interpreter ---------------------------------------------------

// Direct-threaded dispatch (labels as values) under GCC/Clang; define
// HPLREPRO_VM_FORCE_SWITCH for the portable switch loop. The semantic
// oracle is the stack interpreter above, selected per build with
// -cl-interp=stack.
#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(HPLREPRO_VM_FORCE_SWITCH)
#define HPLREPRO_VM_COMPUTED_GOTO 1
#else
#define HPLREPRO_VM_COMPUTED_GOTO 0
#endif

// pocl-style work-item loops: every item of the group executes on this one
// activation. The loop starts at the phase's first unfinished item; a
// barrier saves the item's cross-region live registers to its spill row
// and a kernel-level return marks it done, and either way the loop
// advances to the next unfinished item instead of suspending. The phase
// ends when no unfinished item remains past the cursor.
//
// The dispatch state (pc, code, R, fn, fr, fuel) lives in plain locals
// that no lambda captures by reference and whose address is never taken,
// so the compiler keeps them in registers across handlers. Block entry is
// a macro and item switching is the next_item label for the same reason
// (DESIGN.md §4a).
void WorkGroupVM::run_phase(const MemoryEnv& mem, const LaunchInfo& launch,
                            const WorkItemInfo* items, ExecStats& stats,
                            MemTracker* tracker) {
  std::uint64_t fuel = 0;
  Frame* fr = &frames_.back();
  const RegFunction* fn = fr->fn;
  const RegInstr* code = fn->code.data();
  Value* R = regs_.data() + fr->base;
  std::uint32_t pc = 0;
  const RegInstr* in = nullptr;

  // The item the loop is executing, bound at next_item.
  const WorkItemInfo* item = nullptr;
  std::vector<std::byte>* priv = nullptr;
  std::size_t cur = static_cast<std::size_t>(-1);

  // Block-level accounting: one histogram bump and one fuel burn per block
  // entry, precomputed at lowering time. Summed over a run this equals the
  // stack interpreter's per-instruction counting exactly.
#define HPLREPRO_ENTER_BLOCK(BLOCK)                                         \
  do {                                                                      \
    const RegBlock& blk = fn->blocks[(BLOCK)];                              \
    stats.control_ops += blk.control_ops;                                   \
    stats.int_ops += blk.int_ops;                                           \
    stats.float_ops += blk.float_ops;                                       \
    stats.double_ops += blk.double_ops;                                     \
    stats.special_ops += blk.special_ops;                                   \
    stats.fused_ops += blk.fused_ops;                                       \
    if (fuel < blk.fuel) {                                                  \
      trap("instruction budget exhausted (infinite loop?)");                \
    }                                                                       \
    fuel -= blk.fuel;                                                       \
    pc = blk.start;                                                         \
  } while (0)

#if HPLREPRO_VM_COMPUTED_GOTO
  static const void* const kLabels[] = {
#define HPLREPRO_VM_LABEL(name) &&L_##name,
      HPLREPRO_REG_OPS(HPLREPRO_VM_LABEL)
#undef HPLREPRO_VM_LABEL
  };
#endif

  // Advances the work-item loop to the next unfinished item and enters its
  // pending region: restores its spill row into the shared register file,
  // resets the per-item fuel budget (each item-region entry gets the full
  // budget, like one stack-interpreter run() between barriers) and
  // accounts the region's entry block. The phase is over when no
  // unfinished item remains past the cursor. Reached only at frame depth 1
  // (eligible kernels have no barriers inside callees), so fr/fn/code/R
  // still address the kernel frame, whose register window starts at
  // regs_[0].
next_item: {
  std::size_t i = cur + 1;  // first time: cur == size_t(-1) wraps to 0
  while (i < group_items_ && done_[i]) ++i;
  if (i >= group_items_) return;
  cur = i;
  item = items + cur;
  priv = &privs_[cur];
  const auto entry = pending_[cur];
  const auto span = restore_by_block_[entry];
  const auto* pairs = spill_pairs_.data() + span.begin;
  // A fresh item (pending block 0) restores from the argument image; a
  // resumed one from the spill columns its barrier save wrote.
  const Value* src =
      entry == 0 ? spill_init_.data() : spills_.data() + cur * spill_stride_;
  for (std::uint32_t k = 0; k < span.len; ++k) {
    R[pairs[k].first] = src[pairs[k].second];
  }
  fuel = fuel_;
  ++regions_executed_;
  HPLREPRO_ENTER_BLOCK(entry);
}

#if HPLREPRO_VM_COMPUTED_GOTO
#define VM_CASE(name) L_##name:
#define VM_NEXT                                   \
  in = code + pc;                                 \
  ++pc;                                           \
  goto* kLabels[static_cast<int>(in->op)];
  VM_NEXT
#else
#define VM_CASE(name) case RegOp::name:
#define VM_NEXT break;
  for (;;) {
    in = code + pc;
    ++pc;
    switch (in->op) {
#endif

  VM_CASE(Const) { R[in->dst].i64 = in->imm; }
  VM_NEXT

  VM_CASE(Mov) { R[in->dst] = R[in->a]; }
  VM_NEXT

  VM_CASE(PrivPtr) {
    R[in->dst].u64 =
        make_pointer(PtrSpace::Private, 0,
                     fr->priv_base + static_cast<std::uint64_t>(in->imm));
  }
  VM_NEXT

  VM_CASE(PtrAdd) {
    R[in->dst].u64 =
        pointer_add(R[in->a].u64, wrap_mul(R[in->b].i64, in->imm));
  }
  VM_NEXT

#define HPLREPRO_RLOAD(NAME, CTYPE, FIELD, EXT)                             \
  VM_CASE(NAME) {                                                           \
    const std::uint64_t ptr = R[in->a].u64;                                 \
    const std::byte* src = resolve(mem, *priv, ptr, sizeof(CTYPE));         \
    note_access(stats, tracker, item->linear_in_group, ptr, sizeof(CTYPE),  \
                false, static_cast<std::uint32_t>(in->aux));                \
    CTYPE raw;                                                              \
    std::memcpy(&raw, src, sizeof(CTYPE));                                  \
    R[in->dst].FIELD = EXT(raw);                                            \
  }                                                                         \
  VM_NEXT
  HPLREPRO_RLOAD(LoadI8, std::int8_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLOAD(LoadU8, std::uint8_t, u64, static_cast<std::uint64_t>)
  HPLREPRO_RLOAD(LoadI16, std::int16_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLOAD(LoadU16, std::uint16_t, u64, static_cast<std::uint64_t>)
  HPLREPRO_RLOAD(LoadI32, std::int32_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLOAD(LoadU32, std::uint32_t, u64, static_cast<std::uint64_t>)
  HPLREPRO_RLOAD(LoadI64, std::int64_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLOAD(LoadF32, float, f32, )
  HPLREPRO_RLOAD(LoadF64, double, f64, )
#undef HPLREPRO_RLOAD

#define HPLREPRO_RSTORE(NAME, CTYPE, FIELD)                                 \
  VM_CASE(NAME) {                                                           \
    const std::uint64_t ptr = R[in->a].u64;                                 \
    std::byte* dst = resolve(mem, *priv, ptr, sizeof(CTYPE));               \
    note_access(stats, tracker, item->linear_in_group, ptr, sizeof(CTYPE),  \
                true, static_cast<std::uint32_t>(in->aux));                 \
    const CTYPE raw = static_cast<CTYPE>(R[in->b].FIELD);                   \
    std::memcpy(dst, &raw, sizeof(CTYPE));                                  \
  }                                                                         \
  VM_NEXT
  HPLREPRO_RSTORE(StoreI8, std::int8_t, i64)
  HPLREPRO_RSTORE(StoreI16, std::int16_t, i64)
  HPLREPRO_RSTORE(StoreI32, std::int32_t, i64)
  HPLREPRO_RSTORE(StoreI64, std::int64_t, i64)
  HPLREPRO_RSTORE(StoreF32, float, f32)
  HPLREPRO_RSTORE(StoreF64, double, f64)
#undef HPLREPRO_RSTORE

#define HPLREPRO_RLIDX(NAME, CTYPE, FIELD, EXT)                             \
  VM_CASE(NAME) {                                                           \
    const std::uint64_t ptr =                                               \
        pointer_add(R[in->a].u64, wrap_mul(R[in->b].i64, in->imm));         \
    const std::byte* src = resolve(mem, *priv, ptr, sizeof(CTYPE));         \
    note_access(stats, tracker, item->linear_in_group, ptr, sizeof(CTYPE),  \
                false, static_cast<std::uint32_t>(in->aux));                \
    CTYPE raw;                                                              \
    std::memcpy(&raw, src, sizeof(CTYPE));                                  \
    R[in->dst].FIELD = EXT(raw);                                            \
  }                                                                         \
  VM_NEXT
  HPLREPRO_RLIDX(LIdxI8, std::int8_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLIDX(LIdxU8, std::uint8_t, u64, static_cast<std::uint64_t>)
  HPLREPRO_RLIDX(LIdxI16, std::int16_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLIDX(LIdxU16, std::uint16_t, u64, static_cast<std::uint64_t>)
  HPLREPRO_RLIDX(LIdxI32, std::int32_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLIDX(LIdxU32, std::uint32_t, u64, static_cast<std::uint64_t>)
  HPLREPRO_RLIDX(LIdxI64, std::int64_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLIDX(LIdxF32, float, f32, )
  HPLREPRO_RLIDX(LIdxF64, double, f64, )
#undef HPLREPRO_RLIDX

#define HPLREPRO_RSIDX(NAME, CTYPE, FIELD)                                  \
  VM_CASE(NAME) {                                                           \
    const std::uint64_t ptr =                                               \
        pointer_add(R[in->a].u64, wrap_mul(R[in->b].i64, in->imm));         \
    std::byte* dst = resolve(mem, *priv, ptr, sizeof(CTYPE));               \
    note_access(stats, tracker, item->linear_in_group, ptr, sizeof(CTYPE),  \
                true, static_cast<std::uint32_t>(in->aux));                 \
    const CTYPE raw = static_cast<CTYPE>(R[in->c].FIELD);                   \
    std::memcpy(dst, &raw, sizeof(CTYPE));                                  \
  }                                                                         \
  VM_NEXT
  HPLREPRO_RSIDX(SIdxI8, std::int8_t, i64)
  HPLREPRO_RSIDX(SIdxI16, std::int16_t, i64)
  HPLREPRO_RSIDX(SIdxI32, std::int32_t, i64)
  HPLREPRO_RSIDX(SIdxI64, std::int64_t, i64)
  HPLREPRO_RSIDX(SIdxF32, float, f32)
  HPLREPRO_RSIDX(SIdxF64, double, f64)
#undef HPLREPRO_RSIDX

#define HPLREPRO_RBIN(NAME, FIELD, EXPR)                                    \
  VM_CASE(NAME) {                                                           \
    const Value a = R[in->a];                                               \
    const Value b = R[in->b];                                               \
    R[in->dst].FIELD = (EXPR);                                              \
  }                                                                         \
  VM_NEXT
  HPLREPRO_RBIN(AddI, i64, wrap_add(a.i64, b.i64))
  HPLREPRO_RBIN(SubI, i64, wrap_sub(a.i64, b.i64))
  HPLREPRO_RBIN(MulI, i64, wrap_mul(a.i64, b.i64))
  HPLREPRO_RBIN(DivI, i64, b.i64 == 0 ? 0 : (a.i64 == INT64_MIN && b.i64 == -1 ? a.i64 : a.i64 / b.i64))
  HPLREPRO_RBIN(DivU, u64, b.u64 == 0 ? 0 : a.u64 / b.u64)
  HPLREPRO_RBIN(RemI, i64, b.i64 == 0 ? 0 : (a.i64 == INT64_MIN && b.i64 == -1 ? 0 : a.i64 % b.i64))
  HPLREPRO_RBIN(RemU, u64, b.u64 == 0 ? 0 : a.u64 % b.u64)
  HPLREPRO_RBIN(AndI, u64, a.u64 & b.u64)
  HPLREPRO_RBIN(OrI, u64, a.u64 | b.u64)
  HPLREPRO_RBIN(XorI, u64, a.u64 ^ b.u64)
  HPLREPRO_RBIN(ShlI, u64, a.u64 << (b.u64 & 63))
  HPLREPRO_RBIN(ShrI, i64, a.i64 >> (b.u64 & 63))
  HPLREPRO_RBIN(ShrU, u64, a.u64 >> (b.u64 & 63))
  HPLREPRO_RBIN(AddF, f32, a.f32 + b.f32)
  HPLREPRO_RBIN(SubF, f32, a.f32 - b.f32)
  HPLREPRO_RBIN(MulF, f32, a.f32 * b.f32)
  HPLREPRO_RBIN(DivF, f32, a.f32 / b.f32)
  HPLREPRO_RBIN(AddD, f64, a.f64 + b.f64)
  HPLREPRO_RBIN(SubD, f64, a.f64 - b.f64)
  HPLREPRO_RBIN(MulD, f64, a.f64 * b.f64)
  HPLREPRO_RBIN(DivD, f64, a.f64 / b.f64)
  HPLREPRO_RBIN(EqI, i64, a.i64 == b.i64 ? 1 : 0)
  HPLREPRO_RBIN(NeI, i64, a.i64 != b.i64 ? 1 : 0)
  HPLREPRO_RBIN(LtI, i64, a.i64 < b.i64 ? 1 : 0)
  HPLREPRO_RBIN(LeI, i64, a.i64 <= b.i64 ? 1 : 0)
  HPLREPRO_RBIN(GtI, i64, a.i64 > b.i64 ? 1 : 0)
  HPLREPRO_RBIN(GeI, i64, a.i64 >= b.i64 ? 1 : 0)
  HPLREPRO_RBIN(LtU, i64, a.u64 < b.u64 ? 1 : 0)
  HPLREPRO_RBIN(LeU, i64, a.u64 <= b.u64 ? 1 : 0)
  HPLREPRO_RBIN(GtU, i64, a.u64 > b.u64 ? 1 : 0)
  HPLREPRO_RBIN(GeU, i64, a.u64 >= b.u64 ? 1 : 0)
  HPLREPRO_RBIN(EqF, i64, a.f32 == b.f32 ? 1 : 0)
  HPLREPRO_RBIN(NeF, i64, a.f32 != b.f32 ? 1 : 0)
  HPLREPRO_RBIN(LtF, i64, a.f32 < b.f32 ? 1 : 0)
  HPLREPRO_RBIN(LeF, i64, a.f32 <= b.f32 ? 1 : 0)
  HPLREPRO_RBIN(GtF, i64, a.f32 > b.f32 ? 1 : 0)
  HPLREPRO_RBIN(GeF, i64, a.f32 >= b.f32 ? 1 : 0)
  HPLREPRO_RBIN(EqD, i64, a.f64 == b.f64 ? 1 : 0)
  HPLREPRO_RBIN(NeD, i64, a.f64 != b.f64 ? 1 : 0)
  HPLREPRO_RBIN(LtD, i64, a.f64 < b.f64 ? 1 : 0)
  HPLREPRO_RBIN(LeD, i64, a.f64 <= b.f64 ? 1 : 0)
  HPLREPRO_RBIN(GtD, i64, a.f64 > b.f64 ? 1 : 0)
  HPLREPRO_RBIN(GeD, i64, a.f64 >= b.f64 ? 1 : 0)
#undef HPLREPRO_RBIN

#define HPLREPRO_RUN1(NAME, STMT)                                           \
  VM_CASE(NAME) { STMT; }                                                   \
  VM_NEXT
  HPLREPRO_RUN1(NegI, R[in->dst].i64 = wrap_neg(R[in->a].i64))
  HPLREPRO_RUN1(NotI, R[in->dst].u64 = ~R[in->a].u64)
  HPLREPRO_RUN1(NegF, R[in->dst].f32 = -R[in->a].f32)
  HPLREPRO_RUN1(NegD, R[in->dst].f64 = -R[in->a].f64)
  HPLREPRO_RUN1(LNot, R[in->dst].i64 = R[in->a].i64 == 0 ? 1 : 0)
  HPLREPRO_RUN1(Bool, R[in->dst].i64 = R[in->a].i64 != 0 ? 1 : 0)
  HPLREPRO_RUN1(Sext8,
                R[in->dst].i64 = static_cast<std::int8_t>(R[in->a].i64))
  HPLREPRO_RUN1(Sext16,
                R[in->dst].i64 = static_cast<std::int16_t>(R[in->a].i64))
  HPLREPRO_RUN1(Sext32,
                R[in->dst].i64 = static_cast<std::int32_t>(R[in->a].i64))
  HPLREPRO_RUN1(Zext8, R[in->dst].u64 = R[in->a].u64 & 0xFFull)
  HPLREPRO_RUN1(Zext16, R[in->dst].u64 = R[in->a].u64 & 0xFFFFull)
  HPLREPRO_RUN1(Zext32, R[in->dst].u64 = R[in->a].u64 & 0xFFFFFFFFull)
  HPLREPRO_RUN1(Zext1, R[in->dst].u64 = R[in->a].u64 & 1ull)
  HPLREPRO_RUN1(I2F, R[in->dst].f32 = static_cast<float>(R[in->a].i64))
  HPLREPRO_RUN1(I2D, R[in->dst].f64 = static_cast<double>(R[in->a].i64))
  HPLREPRO_RUN1(U2F, R[in->dst].f32 = static_cast<float>(R[in->a].u64))
  HPLREPRO_RUN1(U2D, R[in->dst].f64 = static_cast<double>(R[in->a].u64))
  HPLREPRO_RUN1(F2I, R[in->dst].i64 = checked_trunc_i64(R[in->a].f32))
  HPLREPRO_RUN1(D2I, R[in->dst].i64 = checked_trunc_i64(R[in->a].f64))
  HPLREPRO_RUN1(F2U, R[in->dst].u64 = checked_trunc_u64(R[in->a].f32))
  HPLREPRO_RUN1(D2U, R[in->dst].u64 = checked_trunc_u64(R[in->a].f64))
  HPLREPRO_RUN1(F2D, R[in->dst].f64 = static_cast<double>(R[in->a].f32))
  HPLREPRO_RUN1(D2F, R[in->dst].f32 = static_cast<float>(R[in->a].f64))
#undef HPLREPRO_RUN1

  VM_CASE(MadI) {
    // Integer add commutes, so the operand-order bit is irrelevant here.
    R[in->dst].i64 =
        wrap_add(wrap_mul(R[in->a].i64, R[in->b].i64), R[in->c].i64);
  }
  VM_NEXT

  VM_CASE(MadF) {
    // Two roundings, addend order per the encoding — bit-identical with
    // the stack interpreter's MadF.
    const float t = R[in->a].f32 * R[in->b].f32;
    const float z = R[in->c].f32;
    R[in->dst].f32 = in->aux == 0 ? t + z : z + t;
  }
  VM_NEXT

  VM_CASE(MadD) {
    const double t = R[in->a].f64 * R[in->b].f64;
    const double z = R[in->c].f64;
    R[in->dst].f64 = in->aux == 0 ? t + z : z + t;
  }
  VM_NEXT

  VM_CASE(Br) { HPLREPRO_ENTER_BLOCK(static_cast<std::uint32_t>(in->aux)); }
  VM_NEXT

  VM_CASE(BrIf) {
    HPLREPRO_ENTER_BLOCK(R[in->a].i64 != 0
                             ? in->dst
                             : static_cast<std::uint32_t>(in->aux));
  }
  VM_NEXT

  VM_CASE(Call) {
    if (frames_.size() >= 64) trap("call stack overflow");
    const RegFunction& callee =
        module_->reg_functions[static_cast<std::size_t>(in->aux)];
    fr->pc = pc;
    Frame next;
    next.fn = &callee;
    next.ret_reg =
        in->b ? static_cast<std::uint32_t>(fr->base + in->dst) : kNoRet;
    next.base = regs_.size();
    next.priv_base = fr->priv_base + fn->private_bytes;
    const std::size_t abase = fr->base + in->a;
    // resize value-initializes the new registers (callee locals are zero,
    // like the stack interpreter's fresh slots).
    regs_.resize(next.base + callee.num_regs);
    for (std::size_t i = 0; i < callee.num_params; ++i) {
      regs_[next.base + i] = regs_[abase + i];
    }
    if (priv->size() < next.priv_base + callee.private_bytes) {
      priv->resize(next.priv_base + callee.private_bytes);
    }
    frames_.push_back(next);
    fr = &frames_.back();
    fn = &callee;
    code = fn->code.data();
    R = regs_.data() + fr->base;
    HPLREPRO_ENTER_BLOCK(0);
  }
  VM_NEXT

  // Returns from a helper call into its caller's frame.
#define HPLREPRO_POP_FRAME()                                                \
  do {                                                                      \
    regs_.resize(fr->base);                                                 \
    frames_.pop_back();                                                     \
    fr = &frames_.back();                                                   \
    fn = fr->fn;                                                            \
    code = fn->code.data();                                                 \
    R = regs_.data() + fr->base;                                            \
    pc = fr->pc;                                                            \
  } while (0)

  VM_CASE(Ret) {
    if (frames_.size() == 1) goto finish_item;
    const Value result = R[in->a];
    const std::uint32_t rr = fr->ret_reg;
    HPLREPRO_POP_FRAME();
    if (rr != kNoRet) regs_[rr] = result;
  }
  VM_NEXT

  VM_CASE(RetVoid) {
    if (frames_.size() == 1) goto finish_item;
    HPLREPRO_POP_FRAME();
  }
  VM_NEXT
#undef HPLREPRO_POP_FRAME

  // A kernel-level return: the item is finished; the shared kernel frame
  // stays for the next unfinished item.
finish_item:
  done_[cur] = 1;
  ++done_count_;
  ++phase_finished_;
  goto next_item;

  VM_CASE(Barrier) {
    ++stats.barriers_executed;
    // A barrier the front end did not record makes the kernel ineligible
    // at build time; trap like the stack interpreter would, just in case.
    if (!uses_barrier_) {
      trap("kernel reached a barrier not seen at compile time");
    }
    // Save the resume block's save list — the live registers a region
    // reaching this barrier may have modified; the rest already sit in
    // their spill columns — park the item there, run the next item.
    const auto resume = static_cast<std::uint32_t>(in->aux);
    const auto span = save_by_block_[resume];
    const auto* pairs = spill_pairs_.data() + span.begin;
    Value* row = spills_.data() + cur * spill_stride_;
    for (std::uint32_t k = 0; k < span.len; ++k) {
      row[pairs[k].second] = R[pairs[k].first];
    }
    pending_[cur] = resume;
    ++phase_at_barrier_;
    goto next_item;
  }

  VM_CASE(WorkItem) {
    const auto id = static_cast<Builtin>(in->aux);
    const std::uint64_t dim = R[in->a].u64;
    const std::size_t d = dim < 3 ? static_cast<std::size_t>(dim) : 0;
    std::uint64_t v = 0;
    switch (id) {
      case Builtin::GetWorkDim:
        v = static_cast<std::uint64_t>(launch.work_dim);
        break;
      case Builtin::GetGlobalId: v = item->global_id[d]; break;
      case Builtin::GetLocalId: v = item->local_id[d]; break;
      case Builtin::GetGroupId: v = item->group_id[d]; break;
      case Builtin::GetGlobalSize: v = launch.global_size[d]; break;
      case Builtin::GetLocalSize: v = launch.local_size[d]; break;
      case Builtin::GetNumGroups: v = launch.num_groups[d]; break;
      default:
        trap("bad work-item function");
    }
    R[in->dst].u64 = v;
  }
  VM_NEXT

  VM_CASE(BuiltinFn) {
    const auto id = static_cast<Builtin>(in->aux);
    const int arity = in->b;
    const Value* args = &R[in->a];
    switch (in->c) {
      case 1: {  // f32
        float a[3] = {0, 0, 0};
        for (int i = 0; i < arity; ++i) a[i] = args[i].f32;
        R[in->dst].f32 = apply_math_builtin_f(id, a);
        break;
      }
      case 2: {  // f64
        double a[3] = {0, 0, 0};
        for (int i = 0; i < arity; ++i) a[i] = args[i].f64;
        R[in->dst].f64 = apply_math_builtin_d(id, a);
        break;
      }
      case 0: {  // signed integer
        std::int64_t a[3] = {0, 0, 0};
        for (int i = 0; i < arity; ++i) a[i] = args[i].i64;
        std::int64_t v = 0;
        switch (id) {
          case Builtin::Min: v = a[0] < a[1] ? a[0] : a[1]; break;
          case Builtin::Max: v = a[0] > a[1] ? a[0] : a[1]; break;
          case Builtin::Abs: v = wrap_abs(a[0]); break;
          case Builtin::Clamp:
            v = a[0] < a[1] ? a[1] : (a[0] > a[2] ? a[2] : a[0]);
            break;
          default:
            trap("bad integer builtin");
        }
        R[in->dst].i64 = v;
        break;
      }
      default: {  // unsigned integer
        std::uint64_t a[3] = {0, 0, 0};
        for (int i = 0; i < arity; ++i) a[i] = args[i].u64;
        std::uint64_t v = 0;
        switch (id) {
          case Builtin::Min: v = a[0] < a[1] ? a[0] : a[1]; break;
          case Builtin::Max: v = a[0] > a[1] ? a[0] : a[1]; break;
          case Builtin::Abs: v = a[0]; break;
          case Builtin::Clamp:
            v = a[0] < a[1] ? a[1] : (a[0] > a[2] ? a[2] : a[0]);
            break;
          default:
            trap("bad unsigned builtin");
        }
        R[in->dst].u64 = v;
        break;
      }
    }
  }
  VM_NEXT

#if !HPLREPRO_VM_COMPUTED_GOTO
      default:
        throw InternalError("WorkGroupVM: bad opcode");
    }
  }
#endif
#undef VM_CASE
#undef VM_NEXT
#undef HPLREPRO_ENTER_BLOCK
}

// --- Work-group execution mode ----------------------------------------------

void WorkGroupVM::prepare(const Module& module, const CompiledFunction& kernel,
                          std::span<const Value> args,
                          std::size_t group_items) {
  const auto index =
      static_cast<std::size_t>(&kernel - module.functions.data());
  if (!module.wg_eligible(index)) {
    throw InternalError("WorkGroupVM::prepare: kernel not wg-eligible");
  }
  if (args.size() != kernel.params.size()) {
    throw InternalError("WorkGroupVM::prepare: argument count mismatch");
  }
  module_ = &module;
  kernel_fn_ = &module.reg_functions[index];
  wg_ = &module.wg_info[index];
  uses_barrier_ = kernel.uses_barrier;
  kernel_priv_bytes_ = kernel_fn_->private_bytes;
  group_items_ = group_items;

  args_.assign(args.begin(), args.end());

  // Per-item spill row template: parameter registers get the launch
  // arguments (parameters occupy registers 0..num_params-1), everything
  // else starts zeroed, matching the stack interpreter's fresh slots.
  const std::size_t live_n = wg_->live_regs.size();
  spill_init_.assign(live_n, Value{});
  for (std::size_t k = 0; k < live_n; ++k) {
    const std::uint16_t r = wg_->live_regs[k];
    if (r < args.size()) spill_init_[k] = args[r];
  }
  spills_.resize(group_items * live_n);
  spill_stride_ = live_n;
  privs_.resize(group_items);
  pending_.assign(group_items, 0);
  done_.assign(group_items, 0);

  // Flatten the per-entry restore/save lists into per-block spans over one
  // contiguous pair array (see vm.hpp). Non-entry blocks keep empty spans;
  // they are never looked up.
  const std::size_t nblocks = kernel_fn_->blocks.size();
  spill_pairs_.clear();
  restore_by_block_.assign(nblocks, SpillSpan{});
  save_by_block_.assign(nblocks, SpillSpan{});
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::int32_t e = wg_->entry_index[b];
    if (e < 0) continue;
    const auto& restore = wg_->entry_lists[static_cast<std::size_t>(e)];
    restore_by_block_[b].begin = static_cast<std::uint32_t>(
        spill_pairs_.size());
    restore_by_block_[b].len = static_cast<std::uint32_t>(restore.size());
    spill_pairs_.insert(spill_pairs_.end(), restore.begin(), restore.end());
    const auto& save = wg_->save_lists[static_cast<std::size_t>(e)];
    save_by_block_[b].begin = static_cast<std::uint32_t>(spill_pairs_.size());
    save_by_block_[b].len = static_cast<std::uint32_t>(save.size());
    spill_pairs_.insert(spill_pairs_.end(), save.begin(), save.end());
  }
}

void WorkGroupVM::run_group(const MemoryEnv& mem, const LaunchInfo& launch,
                            const WorkItemInfo* items, ExecStats& stats,
                            MemTracker* tracker) {
  const RegFunction& fn = *kernel_fn_;
  frames_.clear();
  frames_.push_back(Frame{&fn, 0, kNoRet, 0, 0});
  regs_.assign(fn.num_regs, Value{});
  // Uniform registers — the ones no instruction writes — keep these values
  // for every item of the group: arguments in the parameter registers,
  // zeros elsewhere. Item-varying parameters are re-restored per item from
  // the spill-row argument image, which is harmless.
  const std::size_t nparams =
      std::min<std::size_t>(fn.num_params, args_.size());
  for (std::size_t r = 0; r < nparams; ++r) regs_[r] = args_[r];

  // Spill rows need no initialization: pending block 0 restores from the
  // argument image, and every later restore reads columns its barrier save
  // wrote within this group run.
  std::fill(done_.begin(), done_.end(), char{0});
  std::fill(pending_.begin(), pending_.end(), std::uint32_t{0});
  for (std::size_t i = 0; i < group_items_; ++i) {
    privs_[i].assign(kernel_priv_bytes_, std::byte{0});
  }
  done_count_ = 0;

  // One phase runs every unfinished item up to its next barrier (or exit).
  // Items finishing in a phase where others reached a barrier is the
  // divergent-barrier condition — same trap as the stack interpreter's
  // group scheduler in clsim.
  while (done_count_ < group_items_) {
    phase_finished_ = 0;
    phase_at_barrier_ = 0;
    run_phase(mem, launch, items, stats, tracker);
    if (phase_at_barrier_ != 0 && phase_finished_ != 0) {
      throw TrapError(
          "divergent barrier: some work-items exited while others wait at a "
          "barrier");
    }
  }
  loop_trips_ += group_items_;
}

}  // namespace hplrepro::clc
