//===- ir/Serialize.h - Binary IR serialization -----------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stable, versioned binary encoding for checked IrPrograms — the IR half
/// of the `cmmex-artifact-v2` persistent-cache format (docs/ENGINE.md
/// § "Persistent cache"). Every multi-byte field is little-endian
/// (support/ByteIO.h) and the encoding is *canonical*: symbols are remapped
/// to dense first-use ids and every unordered container is emitted in a
/// content-determined order, so serialize(deserialize(serialize(P))) is
/// byte-identical to serialize(P). SerializeTest and the cmmdiff round-trip
/// oracle pin that property.
///
/// The deserialized program owns everything it references: nodes and
/// expressions land in each procedure's arena and SourceModules stays empty (the source
/// ASTs are not part of the format).
///
//===----------------------------------------------------------------------===//

#ifndef CMM_IR_SERIALIZE_H
#define CMM_IR_SERIALIZE_H

#include "ir/Ir.h"
#include "support/ByteIO.h"

#include <memory>
#include <string>

namespace cmm {

/// Version of the IR blob layout; bumped on any encoding change so stale
/// cache files are rejected and recompiled rather than misread.
inline constexpr uint32_t IrFormatVersion = 2;

/// Appends the canonical encoding of \p P to \p W.
void serializeIr(const IrProgram &P, ByteWriter &W);

/// Decodes a program serialized by serializeIr. Returns null with \p Err
/// set (when non-null) on any malformed, truncated, or version-mismatched
/// input; never trusts an index or count it has not bounds-checked.
std::unique_ptr<IrProgram> deserializeIr(ByteReader &R,
                                         std::string *Err = nullptr);

} // namespace cmm

#endif // CMM_IR_SERIALIZE_H
