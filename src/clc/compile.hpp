#ifndef HPLREPRO_CLC_COMPILE_HPP
#define HPLREPRO_CLC_COMPILE_HPP

/// \file compile.hpp
/// Top-level clc entry point: source text in, executable Module out.

#include <string>
#include <string_view>

#include "clc/bytecode.hpp"
#include "clc/diagnostics.hpp"
#include "clc/optimizer.hpp"

namespace hplrepro::clc {

/// Which interpreter executes the kernel: the stack bytecode directly, or
/// the register form lowered from it at build time and run by the
/// direct-threaded work-group VM (same results, same stats, faster).
enum class InterpMode : std::uint8_t { Stack, Threaded };

/// Compilation knobs, settable through OpenCL-style build options.
struct CompileOptions {
  OptLevel opt_level = OptLevel::O2;  // real drivers optimize by default
  InterpMode interp = InterpMode::Threaded;
  /// Lazy-DAG kernel fusion in the HPL front-end (map-map/map-reduce
  /// rewrites before launch). Parsed here so the option travels with the
  /// other build knobs; clc::compile itself ignores it — the HPL runtime
  /// applies it to its eval DAG. On by default.
  bool fusion = true;
};

/// Parses a clBuildProgram-style options string ("-cl-opt-disable -w ...").
/// Recognised: -cl-opt-disable / -O0 (disable the optimizer), -O1/-O2/-O3
/// (enable it; all map to the full pipeline), -cl-mad-enable (accepted; mad
/// fusion is bit-exact here so it is always on at O2), -w (ignored),
/// -cl-interp=stack|threaded (pick the interpreter; default threaded),
/// -cl-fusion[=on|off] (HPL eval-DAG kernel fusion; default on).
/// Returns false and sets `error` on the first unrecognised option.
bool parse_build_options(std::string_view options, CompileOptions& out,
                         std::string& error);

struct CompileResult {
  Module module;
  std::string build_log;  // warnings (and errors when not throwing)
  OptReport opt_report;   // what the optimizer did (level O0: nothing)
};

/// Compiles OpenCL C source to bytecode and optimizes it per `options`.
/// \throws CompileError (with the build log) if the source has errors.
CompileResult compile(std::string_view source,
                      const CompileOptions& options = {});

}  // namespace hplrepro::clc

#endif  // HPLREPRO_CLC_COMPILE_HPP
