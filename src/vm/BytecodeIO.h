//===- vm/BytecodeIO.h - Bytecode encode/decode -----------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary encode/decode for CompiledProgram — the bytecode half of the
/// `cmmex-artifact-v2` persistent-cache format (docs/ENGINE.md § "Persistent
/// cache"). The encoding is positional against the owning IrProgram: the
/// i-th CompiledProc binds to IrProgram::Procs[i], graph-node pointers
/// travel as node ids, and symbols travel as spellings re-interned into the
/// program's interner on decode (which must therefore happen before the
/// artifact is published to other threads). Like ir/Serialize.h the
/// encoding is canonical — CompiledProc holds no unordered container — so
/// encode(decode(encode(C))) is byte-identical.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_VM_BYTECODEIO_H
#define CMM_VM_BYTECODEIO_H

#include "support/ByteIO.h"
#include "vm/Bytecode.h"

#include <memory>
#include <string>

namespace cmm {

/// Version of the bytecode blob layout; bumped on any instruction-set or
/// encoding change so stale cache files are rejected and recompiled.
inline constexpr uint32_t BytecodeFormatVersion = 2;

/// Appends the canonical encoding of \p C (compiled from \p Prog) to \p W.
void serializeBytecode(const CompiledProgram &C, const IrProgram &Prog,
                       ByteWriter &W);

/// Decodes a program serialized by serializeBytecode, relinking node and
/// procedure pointers against \p Prog (which must be the deserialized form
/// of the IR the bytecode was compiled from). Returns null with \p Err set
/// (when non-null) on malformed, truncated, or version-mismatched input.
std::unique_ptr<CompiledProgram>
deserializeBytecode(ByteReader &R, const IrProgram &Prog,
                    std::string *Err = nullptr);

} // namespace cmm

#endif // CMM_VM_BYTECODEIO_H
