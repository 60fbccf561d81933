//===- support/Diagnostics.h - Diagnostic collection ------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small diagnostic engine. Front ends report errors here instead of
/// aborting; tools decide how to render them. Library code never prints to
/// stderr directly except for internal-invariant violations.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SUPPORT_DIAGNOSTICS_H
#define CMM_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace cmm {

/// Severity of a diagnostic.
enum class DiagKind { Error, Warning, Note };

/// One reported diagnostic.
struct Diagnostic {
  DiagKind Kind;
  SourceLoc Loc;
  std::string Message;

  /// Renders as "loc: error: message" in the compiler-diagnostic style
  /// required by the coding standard (lowercase first word, no final period).
  std::string str() const;
};

/// Accumulates diagnostics for one compilation.
class DiagnosticEngine {
public:
  /// Diagnostics kept at most. Later ones are counted (an error still makes
  /// hasErrors() true) but dropped, and one note says so, so no input can
  /// make a compilation's diagnostics grow without bound.
  static constexpr size_t MaxKept = 100;

  void error(SourceLoc Loc, std::string Message) {
    ++NumErrors;
    add(DiagKind::Error, Loc, std::move(Message));
  }
  void warning(SourceLoc Loc, std::string Message) {
    add(DiagKind::Warning, Loc, std::move(Message));
  }
  void note(SourceLoc Loc, std::string Message) {
    add(DiagKind::Note, Loc, std::move(Message));
  }

  bool hasErrors() const { return NumErrors != 0; }
  unsigned errorCount() const { return NumErrors; }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// All diagnostics rendered one per line; convenient for test assertions
  /// and for tools that just dump everything.
  std::string str() const;

private:
  void add(DiagKind Kind, SourceLoc Loc, std::string Message) {
    if (Diags.size() < MaxKept)
      Diags.push_back({Kind, Loc, std::move(Message)});
    else if (Diags.size() == MaxKept)
      Diags.push_back(
          {DiagKind::Note, Loc, "too many errors; the rest are not shown"});
  }

  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace cmm

#endif // CMM_SUPPORT_DIAGNOSTICS_H
