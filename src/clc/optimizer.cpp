#include "clc/optimizer.hpp"

#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "clc/builtins.hpp"
#include "clc/fold.hpp"

namespace hplrepro::clc {

namespace {

constexpr int kNoProducer = -1;

bool is_jump(Op op) {
  return op == Op::Jmp || op == Op::JmpIfZero || op == Op::JmpIfNonZero;
}

bool is_compare(Op op) { return op >= Op::EqI && op <= Op::GeD; }

bool is_binary(Op op) {
  switch (op) {
    case Op::AddI: case Op::SubI: case Op::MulI: case Op::DivI: case Op::DivU:
    case Op::RemI: case Op::RemU: case Op::AndI: case Op::OrI: case Op::XorI:
    case Op::ShlI: case Op::ShrI: case Op::ShrU:
    case Op::AddF: case Op::SubF: case Op::MulF: case Op::DivF:
    case Op::AddD: case Op::SubD: case Op::MulD: case Op::DivD:
      return true;
    default:
      return is_compare(op);
  }
}

bool is_unary(Op op) {
  switch (op) {
    case Op::NegI: case Op::NotI: case Op::NegF: case Op::NegD:
    case Op::LNot: case Op::Bool:
      return true;
    default:
      // Width renormalisation and conversions are contiguous ranges.
      return (op >= Op::Sext8 && op <= Op::Zext1) ||
             (op >= Op::I2F && op <= Op::D2F);
  }
}

bool is_ext(Op op) { return op >= Op::Sext8 && op <= Op::Zext1; }
bool is_load(Op op) { return op >= Op::LoadI8 && op <= Op::LoadF64; }
bool is_store(Op op) { return op >= Op::StoreI8 && op <= Op::StoreF64; }

Op lidx_for(Op load) {
  return static_cast<Op>(static_cast<int>(Op::LIdxI8) +
                         (static_cast<int>(load) -
                          static_cast<int>(Op::LoadI8)));
}

Op sidx_for(Op store) {
  return static_cast<Op>(static_cast<int>(Op::SIdxI8) +
                         (static_cast<int>(store) -
                          static_cast<int>(Op::StoreI8)));
}

/// Static stack effect; `pure` means no side effect beyond the stack (so
/// the instruction may be deleted when its result is dead).
struct Effect {
  int pops = 0;
  int pushes = 0;
  bool pure = false;
};

Effect effect_of(const Instr& in) {
  switch (in.op) {
    case Op::Nop: return {0, 0, true};
    case Op::PushI: case Op::PushF: case Op::PushD:
    case Op::LoadSlot: case Op::LocalPtr: case Op::PrivatePtr:
      return {0, 1, true};
    case Op::Dup: return {1, 2, true};
    case Op::Swap: return {2, 2, true};
    case Op::Pop: return {1, 0, true};
    case Op::PtrAdd: return {2, 1, true};
    case Op::WorkItemFn: return {1, 1, true};
    case Op::BuiltinOp:
      return {builtin_info(static_cast<Builtin>(in.a)).arity, 1, true};
    case Op::MadI: case Op::MadF: case Op::MadD: return {3, 1, true};
    default:
      if (is_load(in.op)) return {1, 1, true};
      if (is_binary(in.op)) return {2, 1, true};
      if (is_unary(in.op)) return {1, 1, true};
      if (in.op >= Op::LIdxI8 && in.op <= Op::LIdxF64) return {2, 1, true};
      return {0, 0, false};  // stores, slots, control, barrier: not pure
  }
}

/// Abstract value on the symbolic operand stack.
struct AbsVal {
  FoldKind kind = FoldKind::None;  // constant scalar, if known
  Value v{};
  bool is_ptr = false;             // constant local/private arena pointer
  PtrSpace space = PtrSpace::Private;
  std::int64_t ptr_imm = 0;        // the LocalPtr/PrivatePtr immediate
  bool is_bool = false;            // value known to be 0 or 1
  // Index of the single pure push instruction that produced this value, or
  // kNoProducer when the producer can't be deleted (shared via Dup, from
  // another block, or not a plain push).
  int producer = kNoProducer;
};

Instr make_push(const Folded& f) {
  switch (f.kind) {
    case FoldKind::F32:
      return {Op::PushF, 0,
              static_cast<std::int64_t>(std::bit_cast<std::uint32_t>(f.v.f32))};
    case FoldKind::F64:
      return {Op::PushD, 0, std::bit_cast<std::int64_t>(f.v.f64)};
    default:
      return {Op::PushI, 0, f.v.i64};
  }
}

/// Optimizes one function's bytecode in place.
class FunctionOptimizer {
 public:
  FunctionOptimizer(const Module& module, CompiledFunction& fn,
                    const std::vector<char>& returns_value,
                    FunctionOptStats& stats)
      : module_(module), fn_(fn), returns_value_(returns_value),
        stats_(stats) {}

  void run() {
    // Clean-up passes to a fixpoint (bounded defensively), then fusion.
    for (int round = 0; round < 32; ++round) {
      bool changed = false;
      changed |= fold_pass();
      changed |= cancel_pass();
      changed |= dead_store_pass();
      changed |= dce_pass();
      if (!changed) break;
    }
    fuse_pass();
  }

 private:
  // Block leaders: entry point plus every jump target and every instruction
  // following a jump or return. leaders[n] is allowed (jump to end).
  std::vector<char> compute_leaders() const {
    const auto& code = fn_.code;
    std::vector<char> leaders(code.size() + 1, 0);
    if (!leaders.empty()) leaders[0] = 1;
    for (std::size_t i = 0; i < code.size(); ++i) {
      const Op op = code[i].op;
      if (is_jump(op)) {
        const auto t = static_cast<std::size_t>(code[i].a);
        if (t < leaders.size()) leaders[t] = 1;
        if (i + 1 < leaders.size()) leaders[i + 1] = 1;
      } else if (op == Op::Ret || op == Op::RetVoid) {
        if (i + 1 < leaders.size()) leaders[i + 1] = 1;
      }
    }
    return leaders;
  }

  /// Removes instructions marked dead and remaps jump targets. A target in
  /// a deleted range lands on the first surviving instruction after it,
  /// which is exactly where execution would have ended up.
  bool compact(std::vector<char>& dead) {
    auto& code = fn_.code;
    const std::size_t n = code.size();
    std::vector<std::int32_t> newpos(n + 1, 0);
    std::int32_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      newpos[i] = k;
      if (!dead[i]) ++k;
    }
    newpos[n] = k;
    if (static_cast<std::size_t>(k) == n) return false;
    std::vector<Instr> out;
    out.reserve(static_cast<std::size_t>(k));
    for (std::size_t i = 0; i < n; ++i) {
      if (dead[i]) continue;
      Instr in = code[i];
      if (is_jump(in.op)) {
        const auto t = static_cast<std::size_t>(in.a);
        in.a = newpos[t <= n ? t : n];
      }
      out.push_back(in);
    }
    code = std::move(out);
    return true;
  }

  // --- Constant folding / propagation / algebraic simplification ---------

  bool fold_pass() {
    auto& code = fn_.code;
    const std::size_t n = code.size();
    const std::vector<char> leaders = compute_leaders();
    std::vector<char> dead(n, 0);
    bool changed = false;

    std::vector<AbsVal> st;           // symbolic suffix of the operand stack
    std::map<std::int32_t, AbsVal> slot_consts;  // per-block slot constants

    auto reset = [&] {
      st.clear();
      slot_consts.clear();
    };
    auto pop_abs = [&]() -> AbsVal {
      if (st.empty()) return AbsVal{};  // value from before this block
      AbsVal e = st.back();
      st.pop_back();
      return e;
    };
    auto push_unknown = [&](bool boolish = false) {
      AbsVal e;
      e.is_bool = boolish;
      st.push_back(e);
    };
    auto push_const = [&](const Folded& f, int producer) {
      AbsVal e;
      e.kind = f.kind;
      e.v = f.v;
      e.producer = producer;
      e.is_bool = f.kind == FoldKind::I64 && (f.v.i64 == 0 || f.v.i64 == 1);
      st.push_back(e);
    };
    auto mark_dead = [&](int idx) {
      if (idx >= 0) {
        dead[static_cast<std::size_t>(idx)] = 1;
        changed = true;
      }
    };
    // True when the entry is the given integer constant and its push can be
    // deleted.
    auto is_ci = [](const AbsVal& e, std::int64_t x) {
      return e.kind == FoldKind::I64 && e.v.i64 == x &&
             e.producer != kNoProducer;
    };
    auto is_cf_bits = [](const AbsVal& e, std::uint32_t bits) {
      return e.kind == FoldKind::F32 &&
             std::bit_cast<std::uint32_t>(e.v.f32) == bits &&
             e.producer != kNoProducer;
    };
    auto is_cd_bits = [](const AbsVal& e, std::uint64_t bits) {
      return e.kind == FoldKind::F64 &&
             std::bit_cast<std::uint64_t>(e.v.f64) == bits &&
             e.producer != kNoProducer;
    };

    for (std::size_t i = 0; i < n; ++i) {
      if (leaders[i]) reset();
      if (dead[i]) continue;
      Instr& in = code[i];
      const int self = static_cast<int>(i);
      switch (in.op) {
        case Op::Nop:
          dead[i] = 1;
          ++stats_.dead_removed;
          changed = true;
          break;
        case Op::PushI: {
          AbsVal e;
          e.kind = FoldKind::I64;
          e.v.i64 = in.imm;
          e.is_bool = in.imm == 0 || in.imm == 1;
          e.producer = self;
          st.push_back(e);
          break;
        }
        case Op::PushF: {
          AbsVal e;
          e.kind = FoldKind::F32;
          e.v.f32 =
              std::bit_cast<float>(static_cast<std::uint32_t>(in.imm));
          e.producer = self;
          st.push_back(e);
          break;
        }
        case Op::PushD: {
          AbsVal e;
          e.kind = FoldKind::F64;
          e.v.f64 = std::bit_cast<double>(in.imm);
          e.producer = self;
          st.push_back(e);
          break;
        }
        case Op::LocalPtr:
        case Op::PrivatePtr: {
          AbsVal e;
          e.is_ptr = true;
          e.space =
              in.op == Op::LocalPtr ? PtrSpace::Local : PtrSpace::Private;
          e.ptr_imm = in.imm;
          e.producer = self;
          st.push_back(e);
          break;
        }
        case Op::Dup: {
          if (!st.empty()) {
            // Two entries now share one producer; pin the original so a
            // later fold can't delete an instruction the copy depends on.
            st.back().producer = kNoProducer;
            AbsVal copy = st.back();
            copy.producer = self;  // deleting the Dup removes only the copy
            st.push_back(copy);
          } else {
            push_unknown();
          }
          break;
        }
        case Op::Swap: {
          AbsVal b = pop_abs();
          AbsVal a = pop_abs();
          a.producer = kNoProducer;
          b.producer = kNoProducer;
          st.push_back(b);
          st.push_back(a);
          break;
        }
        case Op::Pop: {
          const AbsVal e = pop_abs();
          if (e.producer != kNoProducer) {
            mark_dead(e.producer);
            dead[i] = 1;
            ++stats_.dead_removed;
          }
          break;
        }
        case Op::LoadSlot: {
          auto it = slot_consts.find(in.a);
          if (it != slot_consts.end()) {
            const AbsVal& c = it->second;
            if (c.is_ptr) {
              in = {c.space == PtrSpace::Local ? Op::LocalPtr
                                               : Op::PrivatePtr,
                    0, c.ptr_imm};
            } else {
              Folded f{c.kind, c.v};
              in = make_push(f);
            }
            AbsVal e = c;
            e.producer = self;
            st.push_back(e);
            ++stats_.constants_folded;
            changed = true;
          } else {
            AbsVal e;
            e.producer = self;  // unknown value, but a deletable pure push
            st.push_back(e);
          }
          break;
        }
        case Op::StoreSlot: {
          AbsVal e = pop_abs();
          e.producer = kNoProducer;
          if (e.kind != FoldKind::None || e.is_ptr) {
            slot_consts[in.a] = e;
          } else {
            slot_consts.erase(in.a);
          }
          break;
        }
        case Op::PtrAdd: {
          const AbsVal idx = pop_abs();
          const AbsVal ptr = pop_abs();
          if (is_ci(idx, 0)) {
            // ptr + 0: drop the index push and the add.
            mark_dead(idx.producer);
            dead[i] = 1;
            ++stats_.algebraic_simplified;
            changed = true;
            st.push_back(ptr);
            break;
          }
          if (idx.kind == FoldKind::I64 && idx.producer != kNoProducer &&
              ptr.is_ptr && ptr.producer != kNoProducer) {
            // Fold the constant offset into the arena-pointer immediate
            // (equal mod 2^48, which is what pointer_add computes).
            const std::int64_t delta = wrap_mul(idx.v.i64, in.a);
            mark_dead(idx.producer);
            mark_dead(ptr.producer);
            in = {ptr.space == PtrSpace::Local ? Op::LocalPtr
                                               : Op::PrivatePtr,
                  0, wrap_add(ptr.ptr_imm, delta)};
            AbsVal e = ptr;
            e.ptr_imm = wrap_add(ptr.ptr_imm, delta);
            e.producer = self;
            st.push_back(e);
            ++stats_.constants_folded;
            changed = true;
            break;
          }
          push_unknown();
          break;
        }
        case Op::Jmp:
          reset();
          break;
        case Op::JmpIfZero:
        case Op::JmpIfNonZero: {
          const AbsVal c = pop_abs();
          if (c.kind == FoldKind::I64 && c.producer != kNoProducer) {
            const bool taken = in.op == Op::JmpIfZero ? c.v.i64 == 0
                                                      : c.v.i64 != 0;
            mark_dead(c.producer);
            if (taken) {
              in.op = Op::Jmp;
              reset();
            } else {
              dead[i] = 1;
            }
            ++stats_.constants_folded;
            changed = true;
          }
          break;
        }
        case Op::Call: {
          const auto& callee =
              module_.functions[static_cast<std::size_t>(in.a)];
          for (std::size_t p = 0; p < callee.params.size(); ++p) pop_abs();
          // Slots are frame-local, so slot constants survive the call.
          if (returns_value_[static_cast<std::size_t>(in.a)]) {
            push_unknown();
          }
          break;
        }
        case Op::Ret:
          pop_abs();
          reset();
          break;
        case Op::RetVoid:
          reset();
          break;
        case Op::BarrierOp:
          pop_abs();  // fence flags
          break;
        case Op::WorkItemFn:
          pop_abs();
          push_unknown();
          break;
        case Op::BuiltinOp: {
          const int arity = builtin_info(static_cast<Builtin>(in.a)).arity;
          for (int p = 0; p < arity; ++p) pop_abs();
          push_unknown();
          break;
        }
        default: {
          if (is_binary(in.op)) {
            const AbsVal b = pop_abs();
            const AbsVal a = pop_abs();
            if (a.kind != FoldKind::None && b.kind != FoldKind::None &&
                a.producer != kNoProducer && b.producer != kNoProducer) {
              const Folded f = fold_binary(in.op, a.kind, a.v, b.kind, b.v);
              if (f.kind != FoldKind::None) {
                mark_dead(a.producer);
                mark_dead(b.producer);
                in = make_push(f);
                push_const(f, self);
                ++stats_.constants_folded;
                changed = true;
                break;
              }
            }
            if (try_algebraic(in, i, a, b, dead, changed, is_ci, is_cf_bits,
                              is_cd_bits, st)) {
              break;
            }
            push_unknown(is_compare(in.op));
            break;
          }
          if (is_unary(in.op)) {
            const AbsVal a = pop_abs();
            if (a.kind != FoldKind::None && a.producer != kNoProducer) {
              const Folded f = fold_unary(in.op, a.kind, a.v);
              if (f.kind != FoldKind::None) {
                mark_dead(a.producer);
                in = make_push(f);
                push_const(f, self);
                ++stats_.constants_folded;
                changed = true;
                break;
              }
            }
            // Renormalising a value already known to be 0/1 is a no-op
            // (compare;Bool, LNot;Zext1, bool;Sext32, ...).
            if (a.is_bool && (in.op == Op::Bool || is_ext(in.op))) {
              dead[i] = 1;
              ++stats_.algebraic_simplified;
              changed = true;
              st.push_back(a);
              break;
            }
            push_unknown(in.op == Op::LNot || in.op == Op::Bool);
            break;
          }
          if (is_load(in.op)) {
            pop_abs();
            push_unknown();
            break;
          }
          if (is_store(in.op)) {
            pop_abs();
            pop_abs();
            break;
          }
          // Superinstructions (only present if a fused function is
          // re-optimized) and anything unrecognised: generic effect.
          {
            const Effect e = effect_of(in);
            for (int p = 0; p < e.pops; ++p) pop_abs();
            for (int p = 0; p < e.pushes; ++p) push_unknown();
          }
          break;
        }
      }
    }

    bool removed = false;
    for (std::size_t i = 0; i < n; ++i) removed |= dead[i] != 0;
    if (removed) compact(dead);
    return changed;
  }

  /// Identity/absorption rules and strength reduction for one binary op
  /// with at least one constant operand. `b` is the top operand. Returns
  /// true (and pushes the result entry) when a rule applied.
  template <typename CI, typename CF, typename CD>
  bool try_algebraic(Instr& in, std::size_t i, const AbsVal& a,
                     const AbsVal& b, std::vector<char>& dead, bool& changed,
                     const CI& is_ci, const CF& is_cf_bits,
                     const CD& is_cd_bits, std::vector<AbsVal>& st) {
    auto& code = fn_.code;
    // Deletes the op and the constant operand's push, keeping `keep`.
    auto keep_with = [&](const AbsVal& keep, const AbsVal& drop) {
      dead[static_cast<std::size_t>(drop.producer)] = 1;
      dead[i] = 1;
      ++stats_.algebraic_simplified;
      changed = true;
      st.push_back(keep);
      return true;
    };
    // Replaces op and both operand pushes with a single constant.
    auto to_const = [&](std::int64_t value) {
      if (a.producer == kNoProducer || b.producer == kNoProducer) {
        return false;
      }
      dead[static_cast<std::size_t>(a.producer)] = 1;
      dead[static_cast<std::size_t>(b.producer)] = 1;
      Folded f;
      f.kind = FoldKind::I64;
      f.v.i64 = value;
      in = make_push(f);
      AbsVal e;
      e.kind = FoldKind::I64;
      e.v.i64 = value;
      e.is_bool = value == 0 || value == 1;
      e.producer = static_cast<int>(i);
      st.push_back(e);
      ++stats_.algebraic_simplified;
      changed = true;
      return true;
    };
    // Strength reduction: rewrite the constant's push to the shift/mask
    // operand and this op to a cheaper one. Needs the producer to be a
    // PushI we can edit.
    auto reduce = [&](const AbsVal& cst, std::int64_t new_imm, Op new_op) {
      if (cst.producer == kNoProducer ||
          code[static_cast<std::size_t>(cst.producer)].op != Op::PushI) {
        return false;
      }
      code[static_cast<std::size_t>(cst.producer)].imm = new_imm;
      in.op = new_op;
      in.a = 0;
      in.imm = 0;
      st.emplace_back();  // result unknown
      ++stats_.algebraic_simplified;
      changed = true;
      return true;
    };
    auto pow2_log = [](std::int64_t v) -> int {
      const auto u = static_cast<std::uint64_t>(v);
      if (v > 1 && (u & (u - 1)) == 0) return std::countr_zero(u);
      return -1;
    };

    switch (in.op) {
      case Op::AddI:
        if (is_ci(b, 0)) return keep_with(a, b);
        if (is_ci(a, 0)) return keep_with(b, a);
        return false;
      case Op::SubI:
        if (is_ci(b, 0)) return keep_with(a, b);
        return false;
      case Op::MulI: {
        if (is_ci(b, 1)) return keep_with(a, b);
        if (is_ci(a, 1)) return keep_with(b, a);
        if (is_ci(b, 0)) return to_const(0);
        if (is_ci(a, 0)) return to_const(0);
        if (b.kind == FoldKind::I64) {
          const int k = pow2_log(b.v.i64);
          if (k > 0 && reduce(b, k, Op::ShlI)) return true;
        }
        return false;
      }
      case Op::DivI:
        if (is_ci(b, 1)) return keep_with(a, b);
        return false;
      case Op::DivU: {
        if (is_ci(b, 1)) return keep_with(a, b);
        if (b.kind == FoldKind::I64) {
          const int k = pow2_log(b.v.i64);
          if (k > 0 && reduce(b, k, Op::ShrU)) return true;
        }
        return false;
      }
      case Op::RemI:
        if (is_ci(b, 1)) return to_const(0);
        return false;
      case Op::RemU: {
        if (is_ci(b, 1)) return to_const(0);
        if (b.kind == FoldKind::I64) {
          const int k = pow2_log(b.v.i64);
          if (k > 0 && reduce(b, b.v.i64 - 1, Op::AndI)) return true;
        }
        return false;
      }
      case Op::AndI:
        if (is_ci(b, -1)) return keep_with(a, b);
        if (is_ci(a, -1)) return keep_with(b, a);
        if (is_ci(b, 0)) return to_const(0);
        if (is_ci(a, 0)) return to_const(0);
        return false;
      case Op::OrI:
      case Op::XorI:
        if (is_ci(b, 0)) return keep_with(a, b);
        if (is_ci(a, 0)) return keep_with(b, a);
        return false;
      case Op::ShlI:
      case Op::ShrI:
      case Op::ShrU:
        if (is_ci(b, 0)) return keep_with(a, b);
        return false;
      // Float/double identities must be bit-exact for every input,
      // including -0.0, infinities and NaN payloads: x*1.0, x/1.0 and
      // x-(+0.0) are; x+0.0 is NOT (-0.0 + 0.0 = +0.0), though x+(-0.0) is.
      case Op::MulF:
        if (is_cf_bits(b, 0x3F800000u)) return keep_with(a, b);  // * 1.0f
        if (is_cf_bits(a, 0x3F800000u)) return keep_with(b, a);
        return false;
      case Op::DivF:
        if (is_cf_bits(b, 0x3F800000u)) return keep_with(a, b);  // / 1.0f
        return false;
      case Op::SubF:
        if (is_cf_bits(b, 0x00000000u)) return keep_with(a, b);  // - +0.0f
        return false;
      case Op::AddF:
        if (is_cf_bits(b, 0x80000000u)) return keep_with(a, b);  // + -0.0f
        return false;
      case Op::MulD:
        if (is_cd_bits(b, 0x3FF0000000000000ull)) return keep_with(a, b);
        if (is_cd_bits(a, 0x3FF0000000000000ull)) return keep_with(b, a);
        return false;
      case Op::DivD:
        if (is_cd_bits(b, 0x3FF0000000000000ull)) return keep_with(a, b);
        return false;
      case Op::SubD:
        if (is_cd_bits(b, 0x0000000000000000ull)) return keep_with(a, b);
        return false;
      case Op::AddD:
        if (is_cd_bits(b, 0x8000000000000000ull)) return keep_with(a, b);
        return false;
      default:
        return false;
    }
  }

  // --- Push/pop cancellation ----------------------------------------------

  /// Cancels `X; Pop` pairs where X is pure: the pair either disappears or
  /// degrades into pops of X's own operands. One change per scan, then
  /// compact; the pass-manager loop reaches the fixpoint.
  bool cancel_pass() {
    bool any = false;
    for (;;) {
      auto& code = fn_.code;
      const std::vector<char> leaders = compute_leaders();
      bool applied = false;
      for (std::size_t i = 0; i + 1 < code.size(); ++i) {
        if (code[i + 1].op != Op::Pop || leaders[i + 1]) continue;
        const Effect e = effect_of(code[i]);
        if (!e.pure) continue;
        bool drop_x = false;
        bool drop_pop = false;
        if (code[i].op == Op::Dup) {
          drop_x = drop_pop = true;  // Dup; Pop is a net no-op
        } else if (e.pushes == 1 && e.pops == 0) {
          drop_x = drop_pop = true;
        } else if (e.pushes == 1 && e.pops == 1) {
          drop_x = true;  // the Pop now consumes X's operand
        } else if (e.pushes == 1 && e.pops == 2) {
          code[i] = {Op::Pop, 0, 0};  // two pops consume X's operands
          ++stats_.dead_removed;
        } else {
          continue;
        }
        if (drop_x) {
          std::vector<char> dead(code.size(), 0);
          dead[i] = 1;
          ++stats_.dead_removed;
          if (drop_pop) {
            dead[i + 1] = 1;
            ++stats_.dead_removed;
          }
          compact(dead);
        }
        applied = true;
        any = true;
        break;
      }
      if (!applied) return any;
    }
  }

  // --- Dead-store elimination ---------------------------------------------

  /// A store to a slot no instruction in the function ever loads is dead;
  /// it becomes a Pop, which then cancels with its producer.
  bool dead_store_pass() {
    auto& code = fn_.code;
    std::vector<char> loaded;
    loaded.assign(static_cast<std::size_t>(fn_.num_slots) + 1, 0);
    for (const Instr& in : code) {
      if (in.op == Op::LoadSlot &&
          static_cast<std::size_t>(in.a) < loaded.size()) {
        loaded[static_cast<std::size_t>(in.a)] = 1;
      }
    }
    bool changed = false;
    for (Instr& in : code) {
      if (in.op == Op::StoreSlot &&
          static_cast<std::size_t>(in.a) < loaded.size() &&
          !loaded[static_cast<std::size_t>(in.a)]) {
        in = {Op::Pop, 0, 0};
        ++stats_.dead_removed;
        changed = true;
      }
    }
    return changed;
  }

  // --- Dead-code elimination ----------------------------------------------

  bool dce_pass() {
    auto& code = fn_.code;
    const std::size_t n = code.size();
    if (n == 0) return false;
    const std::vector<char> leaders = compute_leaders();

    // Enumerate blocks and find each instruction's block.
    std::vector<std::size_t> block_start;
    std::vector<std::size_t> block_of(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (leaders[i]) block_start.push_back(i);
      block_of[i] = block_start.size() - 1;
    }

    // Reachability over the block graph.
    std::vector<char> reachable(block_start.size(), 0);
    std::vector<std::size_t> work{0};
    reachable[0] = 1;
    auto visit = [&](std::size_t target_instr) {
      if (target_instr >= n) return;  // jump to end: falls off, returns
      const std::size_t b = block_of[target_instr];
      if (!reachable[b]) {
        reachable[b] = 1;
        work.push_back(b);
      }
    };
    while (!work.empty()) {
      const std::size_t b = work.back();
      work.pop_back();
      const std::size_t end =
          b + 1 < block_start.size() ? block_start[b + 1] : n;
      const Instr& last = code[end - 1];
      if (last.op == Op::Jmp) {
        visit(static_cast<std::size_t>(last.a));
      } else if (last.op == Op::JmpIfZero || last.op == Op::JmpIfNonZero) {
        visit(static_cast<std::size_t>(last.a));
        visit(end);
      } else if (last.op == Op::Ret || last.op == Op::RetVoid) {
        // no successors
      } else {
        visit(end);
      }
    }

    std::vector<char> dead(n, 0);
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!reachable[block_of[i]]) {
        dead[i] = 1;
        ++stats_.dead_removed;
        changed = true;
      }
    }
    // A jump whose target is the next live instruction is a no-op (a
    // conditional one still has to pop its condition).
    for (std::size_t i = 0; i < n; ++i) {
      if (dead[i] || !is_jump(code[i].op)) continue;
      const auto target = static_cast<std::size_t>(code[i].a);
      if (target <= i) continue;
      bool falls_through = true;
      for (std::size_t j = i + 1; j < target && j < n; ++j) {
        if (!dead[j]) {
          falls_through = false;
          break;
        }
      }
      if (!falls_through) continue;
      if (code[i].op == Op::Jmp) {
        dead[i] = 1;
        ++stats_.dead_removed;
      } else {
        code[i] = {Op::Pop, 0, 0};
      }
      changed = true;
    }
    if (changed) compact(dead);
    return changed;
  }

  // --- Peephole fusion ----------------------------------------------------

  /// Fuses adjacent patterns into superinstructions. The fused instruction
  /// always sits at the *end* of its pattern and subsumes the deleted
  /// prefix, so a jump into the pattern start still lands on code with the
  /// exact original meaning.
  void fuse_pass() {
    for (;;) {
      auto& code = fn_.code;
      const std::vector<char> leaders = compute_leaders();
      bool applied = false;
      for (std::size_t i = 0; i + 1 < code.size(); ++i) {
        const Op op = code[i].op;
        const Op next = code[i + 1].op;
        const bool have2 = i + 2 < code.size();
        const Effect ne = effect_of(code[i + 1]);
        const bool next_is_push = ne.pure && ne.pops == 0 && ne.pushes == 1;
        bool matched = true;

        // PtrAdd; Load -> LIdx
        if (op == Op::PtrAdd && !leaders[i + 1] && is_load(next)) {
          code[i + 1] = {lidx_for(next), code[i].a, 0};
        }
        // PtrAdd; push; Store -> push; SIdx
        else if (op == Op::PtrAdd && have2 && !leaders[i + 1] &&
                 !leaders[i + 2] && is_store(code[i + 2].op) &&
                 next_is_push) {
          code[i + 2] = {sidx_for(code[i + 2].op), code[i].a, 0};
        }
        // Mul; Add -> Mad (a=1: z + x*y)
        else if (op == Op::MulI && next == Op::AddI && !leaders[i + 1]) {
          code[i + 1] = {Op::MadI, 1, 0};
        } else if (op == Op::MulF && next == Op::AddF && !leaders[i + 1]) {
          code[i + 1] = {Op::MadF, 1, 0};
        } else if (op == Op::MulD && next == Op::AddD && !leaders[i + 1]) {
          code[i + 1] = {Op::MadD, 1, 0};
        }
        // Mul; push; Add -> push; Mad (a=0: x*y + z)
        else if (op == Op::MulI && have2 && !leaders[i + 1] &&
                 !leaders[i + 2] && code[i + 2].op == Op::AddI &&
                 (next == Op::PushI || next == Op::LoadSlot)) {
          code[i + 2] = {Op::MadI, 0, 0};
        } else if (op == Op::MulF && have2 && !leaders[i + 1] &&
                   !leaders[i + 2] && code[i + 2].op == Op::AddF &&
                   (next == Op::PushF || next == Op::LoadSlot)) {
          code[i + 2] = {Op::MadF, 0, 0};
        } else if (op == Op::MulD && have2 && !leaders[i + 1] &&
                   !leaders[i + 2] && code[i + 2].op == Op::AddD &&
                   (next == Op::PushD || next == Op::LoadSlot)) {
          code[i + 2] = {Op::MadD, 0, 0};
        } else {
          matched = false;
        }
        if (!matched) continue;

        std::vector<char> dead(code.size(), 0);
        dead[i] = 1;  // the pattern head; its effect moved into the tail
        ++stats_.instrs_fused;
        compact(dead);
        applied = true;
        break;
      }
      if (!applied) return;
    }
  }

  const Module& module_;
  CompiledFunction& fn_;
  const std::vector<char>& returns_value_;
  FunctionOptStats& stats_;
};

}  // namespace

std::string OptReport::summary() const {
  std::ostringstream oss;
  oss << "optimization level: " << (level == OptLevel::O2 ? "O2" : "O0")
      << '\n';
  for (const FunctionOptStats& f : functions) {
    oss << "  " << (f.is_kernel ? "kernel " : "function ") << f.name << ": "
        << f.instrs_before << " -> " << f.instrs_after << " instrs ("
        << f.constants_folded << " folded, " << f.algebraic_simplified
        << " simplified, " << f.dead_removed << " dead, " << f.instrs_fused
        << " fused)\n";
  }
  return oss.str();
}

OptReport optimize_module(Module& module, OptLevel level) {
  OptReport report;
  report.level = level;
  std::vector<char> returns_value(module.functions.size(), 0);
  for (std::size_t i = 0; i < module.functions.size(); ++i) {
    for (const Instr& in : module.functions[i].code) {
      if (in.op == Op::Ret) {
        returns_value[i] = 1;
        break;
      }
    }
  }
  for (CompiledFunction& fn : module.functions) {
    FunctionOptStats fs;
    fs.name = fn.name;
    fs.is_kernel = fn.is_kernel;
    fs.instrs_before = fn.code.size();
    if (level == OptLevel::O2) {
      FunctionOptimizer opt(module, fn, returns_value, fs);
      opt.run();
    }
    fs.instrs_after = fn.code.size();
    report.functions.push_back(std::move(fs));
  }
  return report;
}

}  // namespace hplrepro::clc
