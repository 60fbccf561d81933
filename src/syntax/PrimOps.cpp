//===- syntax/PrimOps.cpp -------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "syntax/PrimOps.h"

#include "support/Assert.h"

#include <algorithm>
#include <iterator>
#include <utility>

using namespace cmm;

std::optional<PrimKind> cmm::lookupPrim(std::string_view Name) {
  // Sorted by name for binary search: no table to build, nothing allocated.
  static constexpr std::pair<std::string_view, PrimKind> Table[] = {
      {"%divs", PrimKind::DivS}, {"%divu", PrimKind::DivU},
      {"%f2i", PrimKind::F2I},   {"%fadd", PrimKind::FAdd},
      {"%fdiv", PrimKind::FDiv}, {"%feq", PrimKind::FEq},
      {"%fle", PrimKind::FLe},   {"%flt", PrimKind::FLt},
      {"%fmul", PrimKind::FMul}, {"%fne", PrimKind::FNe},
      {"%fneg", PrimKind::FNeg}, {"%fsub", PrimKind::FSub},
      {"%geu", PrimKind::GeU},   {"%gtu", PrimKind::GtU},
      {"%hi32", PrimKind::Hi32}, {"%i2f", PrimKind::I2F},
      {"%leu", PrimKind::LeU},   {"%lo32", PrimKind::Lo32},
      {"%ltu", PrimKind::LtU},   {"%mods", PrimKind::ModS},
      {"%modu", PrimKind::ModU}, {"%shra", PrimKind::ShrA},
      {"%sx64", PrimKind::Sx64}, {"%zx64", PrimKind::Zx64},
  };
  static_assert(std::is_sorted(std::begin(Table), std::end(Table),
                               [](const auto &A, const auto &B) {
                                 return A.first < B.first;
                               }));
  auto It = std::lower_bound(
      std::begin(Table), std::end(Table), Name,
      [](const auto &E, std::string_view N) { return E.first < N; });
  if (It == std::end(Table) || It->first != Name)
    return std::nullopt;
  return It->second;
}

const char *cmm::primName(PrimKind K) {
  switch (K) {
  case PrimKind::DivU: return "%divu";
  case PrimKind::DivS: return "%divs";
  case PrimKind::ModU: return "%modu";
  case PrimKind::ModS: return "%mods";
  case PrimKind::LtU: return "%ltu";
  case PrimKind::LeU: return "%leu";
  case PrimKind::GtU: return "%gtu";
  case PrimKind::GeU: return "%geu";
  case PrimKind::ShrA: return "%shra";
  case PrimKind::Zx64: return "%zx64";
  case PrimKind::Sx64: return "%sx64";
  case PrimKind::Lo32: return "%lo32";
  case PrimKind::Hi32: return "%hi32";
  case PrimKind::FAdd: return "%fadd";
  case PrimKind::FSub: return "%fsub";
  case PrimKind::FMul: return "%fmul";
  case PrimKind::FDiv: return "%fdiv";
  case PrimKind::FNeg: return "%fneg";
  case PrimKind::FEq: return "%feq";
  case PrimKind::FNe: return "%fne";
  case PrimKind::FLt: return "%flt";
  case PrimKind::FLe: return "%fle";
  case PrimKind::I2F: return "%i2f";
  case PrimKind::F2I: return "%f2i";
  }
  cmm_unreachable("unknown primitive kind");
}

unsigned cmm::primArity(PrimKind K) {
  switch (K) {
  case PrimKind::Zx64:
  case PrimKind::Sx64:
  case PrimKind::Lo32:
  case PrimKind::Hi32:
  case PrimKind::FNeg:
  case PrimKind::I2F:
  case PrimKind::F2I:
    return 1;
  default:
    return 2;
  }
}

bool cmm::primTouchesFloat(PrimKind K) { return K >= PrimKind::FAdd; }

Type cmm::primResultType(PrimKind K, Type Arg0) {
  switch (K) {
  case PrimKind::DivU:
  case PrimKind::DivS:
  case PrimKind::ModU:
  case PrimKind::ModS:
  case PrimKind::ShrA:
    return Arg0;
  case PrimKind::LtU:
  case PrimKind::LeU:
  case PrimKind::GtU:
  case PrimKind::GeU:
  case PrimKind::FEq:
  case PrimKind::FNe:
  case PrimKind::FLt:
  case PrimKind::FLe:
    return Type::bits(32);
  case PrimKind::Zx64:
  case PrimKind::Sx64:
    return Type::bits(64);
  case PrimKind::Lo32:
  case PrimKind::Hi32:
    return Type::bits(32);
  case PrimKind::FAdd:
  case PrimKind::FSub:
  case PrimKind::FMul:
  case PrimKind::FDiv:
  case PrimKind::FNeg:
    return Arg0;
  case PrimKind::I2F:
    return Type::flt(64);
  case PrimKind::F2I:
    return Type::bits(32);
  }
  cmm_unreachable("unknown primitive kind");
}

bool cmm::primOperandsOk(PrimKind K, const Type *ArgTys, unsigned NumArgs) {
  if (NumArgs != primArity(K))
    return false;
  switch (K) {
  case PrimKind::DivU:
  case PrimKind::DivS:
  case PrimKind::ModU:
  case PrimKind::ModS:
  case PrimKind::ShrA:
  case PrimKind::LtU:
  case PrimKind::LeU:
  case PrimKind::GtU:
  case PrimKind::GeU:
    return ArgTys[0].isBits() && ArgTys[1] == ArgTys[0];
  case PrimKind::Zx64:
  case PrimKind::Sx64:
    return ArgTys[0] == Type::bits(32);
  case PrimKind::Lo32:
  case PrimKind::Hi32:
    return ArgTys[0] == Type::bits(64);
  case PrimKind::FAdd:
  case PrimKind::FSub:
  case PrimKind::FMul:
  case PrimKind::FDiv:
  case PrimKind::FEq:
  case PrimKind::FNe:
  case PrimKind::FLt:
  case PrimKind::FLe:
    return ArgTys[0].isFloat() && ArgTys[1] == ArgTys[0];
  case PrimKind::FNeg:
    return ArgTys[0].isFloat();
  case PrimKind::I2F:
    return ArgTys[0] == Type::bits(32);
  case PrimKind::F2I:
    return ArgTys[0] == Type::flt(64);
  }
  cmm_unreachable("unknown primitive kind");
}

bool cmm::primCanFail(PrimKind K) {
  switch (K) {
  case PrimKind::DivU:
  case PrimKind::DivS:
  case PrimKind::ModU:
  case PrimKind::ModS:
  case PrimKind::F2I:
    return true;
  default:
    return false;
  }
}
