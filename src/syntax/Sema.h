//===- syntax/Sema.h - C-- semantic checks ----------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Name resolution and the static checks of the paper: annotation names must
/// be continuations declared in the same procedure as the call site
/// (Section 4.4), continuation "parameters" must be variables of the
/// enclosing procedure (Section 4.1), goto targets must be labels in the same
/// procedure (Section 3.2). Also performs the modest width checking the C--
/// type system calls for — it directs machine resources, it protects nothing.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SYNTAX_SEMA_H
#define CMM_SYNTAX_SEMA_H

#include "support/Diagnostics.h"
#include "syntax/Ast.h"

#include <memory>
#include <memory_resource>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace cmm {

/// Per-procedure name tables built by Sema and reused by the translator.
/// Vars and Continuations are hash tables on purpose: the translator copies
/// them into IrProc::VarTypes in their iteration order, and the optimizer's
/// dataflow universe follows that order, so it is part of the output.
struct ProcInfo {
  explicit ProcInfo(std::pmr::memory_resource *Mem)
      : Vars(Mem), Continuations(Mem), Labels(Mem) {}

  std::pmr::unordered_map<Symbol, Type> Vars; ///< params and locals
  std::pmr::unordered_map<Symbol, const ContinuationStmt *> Continuations;
  std::pmr::unordered_set<Symbol> Labels;
};

/// Module-wide resolution results. Every table draws from Memory, one
/// monotonic buffer freed with the SemaInfo (after translation).
struct SemaInfo {
  explicit SemaInfo(size_t InitialBytes)
      : Memory(std::make_unique<std::pmr::monotonic_buffer_resource>(
            InitialBytes)),
        Procs(Memory.get()), ImportNames(Memory.get()) {}

  std::unique_ptr<std::pmr::monotonic_buffer_resource> Memory;
  /// Parallel to Module::Procs.
  std::pmr::vector<ProcInfo> Procs;
  /// Imports, declared and implied (unresolved %%name calls); the linker
  /// reports unresolved ones in this table's order.
  std::pmr::unordered_set<Symbol> ImportNames;
};

/// Resolves and checks \p Mod, mutating NameExpr::Ref, Expr::Ty and
/// SizeofExpr::SizeInBytes in place. Returns the tables; on error Diags has
/// errors and the module must not be translated.
SemaInfo analyze(Module &Mod, DiagnosticEngine &Diags);

} // namespace cmm

#endif // CMM_SYNTAX_SEMA_H
