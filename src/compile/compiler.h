// The pattern-to-automaton compiler: PatternOpConfig -> CompiledAutomaton.
//
// Compilation resolves everything a matcher would otherwise re-derive per
// event or per match — positive/negated position split, negation intervals,
// per-type state dispatch — and orders each transition's predicate closures
// by the cost model's estimates (see automaton.h). Every SEQ pattern
// compiles, whatever its width; the translator calls CompilePattern for
// each one (plan/translator.h).

#ifndef CAESAR_COMPILE_COMPILER_H_
#define CAESAR_COMPILE_COMPILER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "compile/automaton.h"

namespace caesar {

class CaesarModel;
struct PlanOptions;

// Compiles the SEQ pattern `config`. With `absint` the abstract
// interpreter (analysis/absint.h) runs over the position guards: it prunes
// guards proven implied by earlier ones, marks transitions proven
// impassable, and refines guard selectivities from the derived
// satisfiable-fraction bounds. Off must be byte-identical to a compiler
// without the pass (PlanOptions::absint threads through here). The
// automaton shares ownership of the config.
std::shared_ptr<const CompiledAutomaton> CompilePattern(
    std::shared_ptr<const PatternOpConfig> config, bool absint = true);

// Translates `model` and renders every pattern operator in plan order
// (deriving queries, then processing), one block per operator prefixed by
// "query <name>": the automaton's DumpText for a SEQ, a one-state
// pass-through block for event matching. plan_options.absint selects the
// compiler pass. Backs `caesar_lint --dump-automaton` and the
// tests/compile_corpus/ goldens.
Result<std::string> DumpModelAutomatons(const CaesarModel& model,
                                        const PlanOptions& plan_options);

}  // namespace caesar

#endif  // CAESAR_COMPILE_COMPILER_H_
