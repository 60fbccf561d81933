//===- vm/BytecodeIO.cpp - Bytecode encode/decode -------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
//
// Layout (all integers little-endian, see support/ByteIO.h):
//
//   u32  BytecodeFormatVersion
//   u64  proc count                  — must equal IrProgram::Procs.size()
//   per proc, in IrProgram::Procs order (CompiledProc::Proc binds
//   positionally; procedure indices in the encoding are implicit):
//     u8   HasBody
//     u32  EntryPc
//     u16  NumSlots, u16 NumRegs
//     u64  code length; per VmInstr:
//       u8 Op, u8 Flags, u16 A, u16 B, u16 C, u32 Imm,
//       u32 node ref (Node::Id + 1 within this proc, 0 = none),
//       u32 Loc.Line, u32 Loc.Col
//     u64  PcOfNode length; u32 each
//     u64  const count; per Value: u8 Kind, u8 Width, u64 Raw, f64 F
//     u64  message count; length-prefixed strings
//     u64  Syms count;    per Symbol: u8 valid, spelling when valid
//     u64  SlotSyms count; encoded the same way
//     u64  CopyPlans count;  per plan: u64 count; u8 Global, u16 Slot, sym
//     u64  SavePlans count;  per plan: u64 count; u16 each
//     u64  EntryPlans count; per plan: u64 count; u16 slot, node ref
//     u64  RvSlotLocs count; strictly ascending by key: u64 key, u32 Line,
//          u32 Col
//   u32  MaxOut
//
// Symbols are re-interned into the program's interner at decode time, which
// mutates shared state: callers must decode before publishing the artifact
// to other threads (engine/ArtifactStore.cpp does so under the cache's
// single-flight slot). CompiledProc::Keys is rebuilt, not serialized.
//
//===----------------------------------------------------------------------===//

#include "vm/BytecodeIO.h"

namespace cmm {

namespace {

constexpr uint8_t MaxOpByte = static_cast<uint8_t>(Op::YieldOp);
constexpr uint8_t MaxValueKindByte =
    static_cast<uint8_t>(Value::Kind::Cont);

void writeLoc(ByteWriter &W, SourceLoc Loc) {
  W.u32(Loc.Line);
  W.u32(Loc.Col);
}

SourceLoc readLoc(ByteReader &R) {
  uint32_t Line = R.u32();
  uint32_t Col = R.u32();
  return SourceLoc(Line, Col);
}

void writeNodeRef(ByteWriter &W, const Node *N) {
  W.u32(N ? N->Id + 1 : 0);
}

void writeSym(ByteWriter &W, Symbol S, const Interner &Names) {
  W.u8(S.isValid() ? 1 : 0);
  if (S.isValid())
    W.str(Names.spelling(S));
}

/// Decoding context for one procedure: resolves node refs against the
/// owning IrProc and symbols against the program interner.
struct ProcReader {
  ByteReader &R;
  const IrProc &Proc;
  Interner &Names;

  Node *nodeRef() {
    uint32_t Ref = R.u32();
    if (Ref == 0)
      return nullptr;
    if (Ref - 1 >= Proc.Nodes.size()) {
      R.fail();
      return nullptr;
    }
    return Proc.Nodes[Ref - 1];
  }

  Symbol sym() {
    if (R.u8() == 0)
      return Symbol();
    return Names.intern(R.str());
  }
};

/// A plan table as its plan count, then per plan its item count and items.
template <typename T, typename WriteFn>
void writePlans(ByteWriter &W, const PlanTable<T> &Plans, WriteFn WriteItem) {
  W.u64(Plans.size());
  for (size_t I = 0; I < Plans.size(); ++I) {
    W.u64(Plans[I].size());
    for (const T &Item : Plans[I])
      WriteItem(Item);
  }
}

template <typename T, typename ReadFn>
void readPlans(ByteReader &R, PlanTable<T> &Plans, size_t MinItemBytes,
               ReadFn ReadItem) {
  uint64_t NumPlans = R.count(/*MinBytesPer=*/8);
  Plans.reserve(NumPlans, 0);
  for (uint64_t I = 0; R.ok() && I < NumPlans; ++I) {
    uint64_t N = R.count(MinItemBytes);
    for (uint64_t J = 0; R.ok() && J < N; ++J)
      Plans.Items.push_back(ReadItem());
    Plans.endPlan();
  }
  Plans.Items.shrink_to_fit();
}

void writeProc(const CompiledProc &C, const Interner &Names, ByteWriter &W) {
  W.u8(C.HasBody ? 1 : 0);
  W.u32(C.EntryPc);
  W.u16(C.NumSlots);
  W.u16(C.NumRegs);

  W.u64(C.Code.size());
  for (const VmInstr &I : C.Code) {
    W.u8(static_cast<uint8_t>(I.K));
    W.u8(I.Flags);
    W.u16(I.A);
    W.u16(I.B);
    W.u16(I.C);
    W.u32(I.Imm);
    writeNodeRef(W, I.N);
    writeLoc(W, I.Loc);
  }

  W.u64(C.PcOfNode.size());
  for (uint32_t Pc : C.PcOfNode)
    W.u32(Pc);

  W.u64(C.Consts.size());
  for (const Value &V : C.Consts) {
    W.u8(static_cast<uint8_t>(V.K));
    W.u8(V.Width);
    W.u64(V.Raw);
    W.f64(V.F);
  }

  W.u64(C.Msgs.size());
  for (const std::string &M : C.Msgs)
    W.str(M);

  W.u64(C.Syms.size());
  for (Symbol S : C.Syms)
    writeSym(W, S, Names);
  W.u64(C.SlotSyms.size());
  for (Symbol S : C.SlotSyms)
    writeSym(W, S, Names);

  writePlans(W, C.CopyPlans, [&](const CopyDest &D) {
    W.u8(D.Global ? 1 : 0);
    W.u16(D.Slot);
    writeSym(W, D.Sym, Names);
  });
  writePlans(W, C.SavePlans, [&](uint16_t Slot) { W.u16(Slot); });
  writePlans(W, C.EntryPlans, [&](const EntryBinding &B) {
    W.u16(B.Slot);
    writeNodeRef(W, B.Target);
  });

  W.u64(C.RvSlotLocs.size());
  for (const RvSlotLoc &L : C.RvSlotLocs) {
    W.u64(L.Key);
    writeLoc(W, L.Loc);
  }
}

bool readProc(ProcReader &P, CompiledProc &C) {
  ByteReader &R = P.R;
  C.Proc = &P.Proc;
  C.HasBody = R.u8() != 0;
  C.EntryPc = R.u32();
  C.NumSlots = R.u16();
  C.NumRegs = R.u16();

  uint64_t NumCode = R.count(/*MinBytesPer=*/22);
  C.Code.reserve(NumCode);
  C.Keys.reserve(NumCode);
  for (uint64_t I = 0; R.ok() && I < NumCode; ++I) {
    VmInstr In;
    uint8_t K = R.u8();
    if (K > MaxOpByte)
      return R.fail(), false;
    In.K = static_cast<Op>(K);
    In.Flags = R.u8();
    In.A = R.u16();
    In.B = R.u16();
    In.C = R.u16();
    In.Imm = R.u32();
    In.N = P.nodeRef();
    In.Loc = readLoc(R);
    C.Code.push_back(In);
    C.Keys.push_back(K);
  }

  uint64_t NumPc = R.count(/*MinBytesPer=*/4);
  C.PcOfNode.reserve(NumPc);
  for (uint64_t I = 0; R.ok() && I < NumPc; ++I)
    C.PcOfNode.push_back(R.u32());

  uint64_t NumConsts = R.count(/*MinBytesPer=*/18);
  C.Consts.reserve(NumConsts);
  for (uint64_t I = 0; R.ok() && I < NumConsts; ++I) {
    Value V;
    uint8_t K = R.u8();
    if (K > MaxValueKindByte)
      return R.fail(), false;
    V.K = static_cast<Value::Kind>(K);
    V.Width = R.u8();
    V.Raw = R.u64();
    V.F = R.f64();
    C.Consts.push_back(V);
  }

  uint64_t NumMsgs = R.count(/*MinBytesPer=*/8);
  C.Msgs.reserve(NumMsgs);
  for (uint64_t I = 0; R.ok() && I < NumMsgs; ++I)
    C.Msgs.push_back(R.str());

  uint64_t NumSyms = R.count(/*MinBytesPer=*/1);
  C.Syms.reserve(NumSyms);
  for (uint64_t I = 0; R.ok() && I < NumSyms; ++I)
    C.Syms.push_back(P.sym());
  uint64_t NumSlotSyms = R.count(/*MinBytesPer=*/1);
  C.SlotSyms.reserve(NumSlotSyms);
  for (uint64_t I = 0; R.ok() && I < NumSlotSyms; ++I)
    C.SlotSyms.push_back(P.sym());

  readPlans(R, C.CopyPlans, /*MinItemBytes=*/4, [&] {
    CopyDest D;
    D.Global = R.u8() != 0;
    D.Slot = R.u16();
    D.Sym = P.sym();
    return D;
  });
  readPlans(R, C.SavePlans, /*MinItemBytes=*/2, [&] { return R.u16(); });
  readPlans(R, C.EntryPlans, /*MinItemBytes=*/6, [&] {
    EntryBinding B;
    B.Slot = R.u16();
    B.Target = P.nodeRef();
    return B;
  });

  // Keys must ascend strictly: the lookup binary-searches them.
  uint64_t NumLocs = R.count(/*MinBytesPer=*/16);
  C.RvSlotLocs.reserve(NumLocs);
  for (uint64_t I = 0; R.ok() && I < NumLocs; ++I) {
    uint64_t Key = R.u64();
    if (!C.RvSlotLocs.empty() && Key <= C.RvSlotLocs.back().Key)
      return R.fail(), false;
    C.RvSlotLocs.push_back({Key, readLoc(R)});
  }

  return R.ok();
}

} // namespace

void serializeBytecode(const CompiledProgram &C, const IrProgram &Prog,
                       ByteWriter &W) {
  W.u32(BytecodeFormatVersion);
  W.u64(C.Procs.size());
  for (const CompiledProc &P : C.Procs)
    writeProc(P, *Prog.Names, W);
  W.u32(C.MaxOut);
}

std::unique_ptr<CompiledProgram>
deserializeBytecode(ByteReader &R, const IrProgram &Prog, std::string *Err) {
  auto Fail = [&](const char *Msg) -> std::unique_ptr<CompiledProgram> {
    if (Err)
      *Err = Msg;
    return nullptr;
  };

  uint32_t Version = R.u32();
  if (!R.ok())
    return Fail("truncated bytecode blob");
  if (Version != BytecodeFormatVersion)
    return Fail("bytecode format version mismatch");

  uint64_t NumProcs = R.count(/*MinBytesPer=*/9);
  if (!R.ok() || NumProcs != Prog.Procs.size())
    return Fail("bytecode proc count does not match program");

  auto C = std::make_unique<CompiledProgram>();
  C->Procs.resize(NumProcs);
  for (uint64_t I = 0; I < NumProcs; ++I) {
    ProcReader P{R, *Prog.Procs[I], *Prog.Names};
    if (!readProc(P, C->Procs[I]))
      return Fail("malformed bytecode blob");
  }
  C->MaxOut = R.u32();
  if (!R.ok())
    return Fail("truncated bytecode blob");
  return C;
}

} // namespace cmm
