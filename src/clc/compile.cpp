#include "clc/compile.hpp"

#include "clc/codegen.hpp"
#include "clc/wgloops.hpp"
#include "clc/lexer.hpp"
#include "clc/parser.hpp"
#include "clc/preprocessor.hpp"
#include "clc/sema.hpp"

namespace hplrepro::clc {

bool parse_build_options(std::string_view options, CompileOptions& out,
                         std::string& error) {
  std::size_t pos = 0;
  while (pos < options.size()) {
    while (pos < options.size() &&
           (options[pos] == ' ' || options[pos] == '\t')) {
      ++pos;
    }
    std::size_t end = pos;
    while (end < options.size() && options[end] != ' ' &&
           options[end] != '\t') {
      ++end;
    }
    if (end == pos) break;
    const std::string_view tok = options.substr(pos, end - pos);
    pos = end;
    if (tok == "-cl-opt-disable" || tok == "-O0") {
      out.opt_level = OptLevel::O0;
    } else if (tok == "-O1" || tok == "-O2" || tok == "-O3") {
      out.opt_level = OptLevel::O2;
    } else if (tok == "-cl-mad-enable" || tok == "-w") {
      // accepted, no effect (mad fusion is bit-exact and on at O2)
    } else if (tok == "-cl-interp=stack") {
      out.interp = InterpMode::Stack;
    } else if (tok == "-cl-interp=threaded") {
      out.interp = InterpMode::Threaded;
    } else if (tok == "-cl-fusion" || tok == "-cl-fusion=on") {
      out.fusion = true;
    } else if (tok == "-cl-fusion=off") {
      out.fusion = false;
    } else {
      error = "unrecognized build option '" + std::string(tok) + "'";
      return false;
    }
  }
  return true;
}

CompileResult compile(std::string_view source, const CompileOptions& options) {
  DiagnosticSink diags;

  PreprocessResult preprocessed = preprocess(source, diags);
  if (diags.has_errors()) throw CompileError(diags.log());

  Lexer lexer(preprocessed.text, diags);
  std::vector<Token> tokens = lexer.lex_all();
  if (diags.has_errors()) throw CompileError(diags.log());

  tokens = expand_macros(std::move(tokens), preprocessed.macros, diags);
  if (diags.has_errors()) throw CompileError(diags.log());

  Parser parser(std::move(tokens), diags);
  TranslationUnit unit = parser.parse();
  if (diags.has_errors()) throw CompileError(diags.log());

  Sema sema(unit, diags);
  sema.run();
  if (diags.has_errors()) throw CompileError(diags.log());

  CompileResult result;
  result.module = generate_bytecode(unit);
  result.opt_report = optimize_module(result.module, options.opt_level);
  result.build_log = diags.log();
  if (options.interp == InterpMode::Threaded) {
    // Lower the optimized stack bytecode to the register form and split
    // each kernel at its barriers into work-item loops (WorkGroupVM). A
    // failed lowering or a kernel the work-group analysis rejects is not a
    // build error: it runs on the stack interpreter, with a note.
    const auto note = [&](const std::string& text) {
      if (!result.build_log.empty()) result.build_log += '\n';
      result.build_log += text;
    };
    Module& module = result.module;
    const std::string lowering_note = lower_module(module);
    if (!lowering_note.empty()) {
      note(lowering_note);
    } else {
      analyze_wg_loops(module);
      for (std::size_t i = 0; i < module.functions.size(); ++i) {
        if (module.functions[i].is_kernel && !module.wg_eligible(i)) {
          note("note: kernel '" + module.functions[i].name +
               "' has a barrier the work-group analysis cannot split "
               "(e.g. barrier() inside a called function); falling back "
               "to the stack interpreter");
        }
      }
    }
  }
  return result;
}

}  // namespace hplrepro::clc
