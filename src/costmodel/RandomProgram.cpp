//===- costmodel/RandomProgram.cpp ----------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
// Two phases keep the five renderings of one seed equivalent:
//
//  1. The *shape* phase makes every random draw (expressions, statement
//     scripts, raise sites, handler constants) without ever consulting the
//     strategy, and stores the results as strategy-independent C-- text
//     fragments over the shared variable pool {x, a, b, c, d}.
//
//  2. The *emit* phase renders the shape under one strategy, adding only
//     fixed scaffolding text (handler-stack pushes, yields, abnormal
//     returns, descriptors, or CPS closures). No emit-phase decision
//     consumes randomness, so the computation the handler and the normal
//     path observe is bit-identical across strategies.
//
//===----------------------------------------------------------------------===//

#include "costmodel/RandomProgram.h"

#include "rts/ExnFormat.h"
#include "rts/SchedFormat.h"
#include "support/Assert.h"
#include "support/Rng.h"

#include <iterator>
#include <vector>

using namespace cmm;

namespace {

/// One statement rendered as indent-relative lines, usable verbatim in any
/// strategy (and, for CPS, in the continuation procedure that holds the
/// post-call half of a frame).
struct TextBlock {
  std::vector<std::pair<unsigned, std::string>> Lines;

  void line(unsigned Indent, std::string Text) {
    Lines.emplace_back(Indent, std::move(Text));
  }
};

/// The strategy-independent description of one chain procedure.
struct ProcShape {
  bool IsLeaf = false;
  bool HasHandler = false;
  std::string InitA, InitB, InitC, InitD; ///< right-hand sides
  TextBlock Pre;                          ///< statements before the call
  // Leaf only.
  bool MayRaise = false;
  std::string RaiseCond;
  unsigned RaiseTag = RandomRaiseTagBase;
  std::string RaisePayload;
  std::string LeafRet;
  // Non-leaf only.
  std::string CallArg;
  TextBlock Post; ///< statements between the call and the return
  std::string RetExpr;
  unsigned HandlerConst = 0;
};

struct ProgramShape {
  std::vector<ProcShape> Procs;
};

//===----------------------------------------------------------------------===//
// Shape phase: all randomness lives here
//===----------------------------------------------------------------------===//

class ShapeBuilder {
public:
  ShapeBuilder(uint64_t Seed, const RandomProgramOptions &Opts)
      : R(Seed), Opts(Opts) {}

  ProgramShape run() {
    ProgramShape S;
    for (unsigned I = 0; I < Opts.NumProcs; ++I)
      S.Procs.push_back(proc(I));
    return S;
  }

private:
  std::string var() {
    static const char *Pool[] = {"x", "a", "b", "c", "d"};
    return Pool[R.below(5)];
  }

  /// A variable safe to assign inside a bounded loop body (never the loop
  /// counter c: a loop body that reassigns c could run for billions of
  /// iterations, and the strategies would then disagree on whether the
  /// step budget expires before the program halts).
  std::string loopBodyVar() {
    static const char *Pool[] = {"x", "a", "b", "d"};
    return Pool[R.below(4)];
  }

  std::string expr(unsigned Depth) {
    if (Depth == 0 || R.chance(2, 5)) {
      if (R.chance(2, 5))
        return std::to_string(R.below(10));
      return var();
    }
    if (Opts.UsePrims && R.chance(1, 6))
      return primExpr(Depth);
    static const char *Ops[] = {"+", "-", "*", "&", "|", "^"};
    return "(" + expr(Depth - 1) + " " + Ops[R.below(6)] + " " +
           expr(Depth - 1) + ")";
  }

  /// A primitive-operation expression that provably cannot fail: the
  /// division family gets a divisor forced odd (hence nonzero).
  std::string primExpr(unsigned Depth) {
    switch (R.below(7)) {
    case 0:
      return "%divu(" + expr(Depth - 1) + ", (" + expr(Depth - 1) + ") | 1)";
    case 1:
      return "%modu(" + expr(Depth - 1) + ", (" + expr(Depth - 1) + ") | 1)";
    case 2:
      return "%shra(" + expr(Depth - 1) + ", " + std::to_string(R.below(40)) +
             ")";
    case 3:
      return "%ltu(" + expr(Depth - 1) + ", " + expr(Depth - 1) + ")";
    case 4:
      return "%geu(" + expr(Depth - 1) + ", " + expr(Depth - 1) + ")";
    case 5:
      // Widen, combine at 64 bits, narrow back: exercises the width
      // conversions without leaving the bits32 variable pool.
      return "%lo32(%zx64(" + expr(Depth - 1) + ") + %sx64(" +
             expr(Depth - 1) + "))";
    default:
      return "%leu(" + expr(Depth - 1) + ", " + expr(Depth - 1) + ")";
    }
  }

  std::string cond() {
    static const char *Cmps[] = {"<", "<=", ">", ">=", "==", "!="};
    return "(" + expr(1) + ") " + Cmps[R.below(6)] + " (" + expr(1) + ")";
  }

  void assigns(TextBlock &B, unsigned Count) {
    for (unsigned I = 0; I < Count; ++I) {
      if (Opts.WrongChancePct != 0 && R.chance(Opts.WrongChancePct, 100)) {
        // Fast-path division with a free divisor: for inputs where the
        // divisor is zero the program goes wrong, and it must go wrong
        // identically under every strategy and stay wrong (or better) under
        // every optimization level. The primitives and the signed infix
        // operators go wrong at different executor sites.
        static const char *const Divs[] = {"%divu", "%mods", "/", "%"};
        const std::string Op = Divs[R.below(std::size(Divs))];
        if (Op.size() == 1)
          B.line(0, var() + " = (" + expr(1) + ") " + Op + " (" + expr(1) +
                        ");");
        else
          B.line(0, var() + " = " + Op + "(" + expr(1) + ", " + expr(1) +
                        ");");
        continue;
      }
      if (Opts.UseCheckedDiv && R.chance(1, 6)) {
        // The slow-but-solid library procedure; the divisor is forced odd
        // so its yield path never triggers and the call returns normally
        // under every strategy.
        const char *Op = R.chance(1, 2) ? "%%divu" : "%%modu";
        B.line(0, var() + " = " + std::string(Op) + "(" + expr(1) + ", (" +
                      expr(1) + ") | 1) also aborts;");
        continue;
      }
      if (R.chance(1, 5)) {
        // A bounded loop: c = k; L: if c > 0 { ...; c = c - 1; goto L; }
        std::string Label = "loop" + std::to_string(NextLabel++);
        B.line(0, "c = " + std::to_string(2 + R.below(4)) + ";");
        B.line(0, Label + ":");
        B.line(0, "if (c) > (0) {");
        B.line(1, loopBodyVar() + " = " + expr(2) + ";");
        B.line(1, "c = c - 1;");
        B.line(1, "goto " + Label + ";");
        B.line(0, "}");
        continue;
      }
      if (R.chance(1, 4)) {
        B.line(0, "if " + cond() + " {");
        B.line(1, var() + " = " + expr(2) + ";");
        B.line(0, "} else {");
        B.line(1, var() + " = " + expr(2) + ";");
        B.line(0, "}");
        continue;
      }
      B.line(0, var() + " = " + expr(2) + ";");
    }
  }

  ProcShape proc(unsigned I) {
    ProcShape P;
    P.IsLeaf = I + 1 == Opts.NumProcs;
    // The outermost procedure always installs a handler so a raising leaf
    // always has a live target.
    P.HasHandler = !P.IsLeaf && Opts.UseHandlers && (I == 0 || R.chance(1, 2));
    P.InitA = "x + " + std::to_string(R.below(5));
    P.InitB = "x * " + std::to_string(1 + R.below(4));
    P.InitC = "(x ^ " + std::to_string(R.below(9)) + ") & 7";
    P.InitD = "x - " + std::to_string(R.below(6));
    assigns(P.Pre, Opts.StmtsPerBlock);
    if (P.IsLeaf) {
      P.MayRaise = Opts.UseHandlers && R.chance(Opts.RaiseChancePct, 100);
      P.RaiseCond = "((" + expr(1) + ") & 3) == (0)";
      P.RaiseTag = RandomRaiseTagBase +
                   static_cast<unsigned>(R.below(RandomRaiseTagCount));
      P.RaisePayload = expr(1);
      P.LeafRet = expr(2);
      return P;
    }
    P.CallArg = expr(1);
    assigns(P.Post, Opts.StmtsPerBlock / 2 + 1);
    P.RetExpr = expr(2);
    P.HandlerConst = static_cast<unsigned>(R.below(100));
    return P;
  }

  Rng R;
  const RandomProgramOptions &Opts;
  unsigned NextLabel = 0;
};

//===----------------------------------------------------------------------===//
// Emit phase: fixed scaffolding per strategy
//===----------------------------------------------------------------------===//

class Emitter {
public:
  Emitter(const ProgramShape &S, const RandomProgramOptions &Opts)
      : S(S), Opts(Opts), T(Opts.Strategy) {}

  std::string run();

private:
  void line(const std::string &Text) {
    Out.append(Indent * 2, ' ');
    Out += Text;
    Out += '\n';
  }

  void block(const TextBlock &B, unsigned Base) {
    for (const auto &[Rel, Text] : B.Lines) {
      Out.append((Base + Rel) * 2, ' ');
      Out += Text;
      Out += '\n';
    }
  }

  bool isCutStrategy() const {
    return T == DispatchTechnique::CutGenerated ||
           T == DispatchTechnique::CutRuntime;
  }

  std::string normalReturn(const std::string &E) const {
    // Under the abnormal-returns rendering every chain procedure returns
    // through a 1-alternate bundle; index 1 is the normal return.
    if (T == DispatchTechnique::UnwindGenerated && Opts.UseHandlers)
      return "return <1/1> (" + E + ");";
    return "return (" + E + ");";
  }

  void header();
  void directProc(unsigned I);
  void cpsProc(unsigned I);
  void mainProc();

  const ProgramShape &S;
  const RandomProgramOptions &Opts;
  DispatchTechnique T;
  std::string Out;
  unsigned Indent = 0;
};

void Emitter::header() {
  line("export main;");
  switch (T) {
  case DispatchTechnique::CutGenerated:
  case DispatchTechnique::CutRuntime:
    line("global bits32 exn_top;");
    line("data exn_stack { bits32[64]; }");
    break;
  case DispatchTechnique::UnwindRuntime: {
    // One shared descriptor: every handler scope handles every tag the
    // leaf can raise, mapping tag base+i to the i'th `also unwinds to`
    // continuation (which re-materializes the tag statically).
    std::vector<ExnHandler> Handlers;
    for (unsigned I = 0; I < RandomRaiseTagCount; ++I)
      Handlers.push_back({RandomRaiseTagBase + I, I, /*TakesArg=*/true});
    Out += emitExnDescriptor("desc_all", Handlers);
    break;
  }
  case DispatchTechnique::Cps:
    line("global bits32 hp;");
    line("data cps_frames { bits32[2048]; }");
    break;
  case DispatchTechnique::UnwindGenerated:
    break;
  }
}

/// Renders chain procedure \p I for the four non-CPS strategies.
void Emitter::directProc(unsigned I) {
  const ProcShape &P = S.Procs[I];
  line("f" + std::to_string(I) + "(bits32 x) {");
  ++Indent;
  // Initialize the whole variable pool before any random statement so the
  // generated program never reads an unbound variable (which would go
  // wrong, and optimizing a wrong program is not required to preserve its
  // behaviour).
  line("bits32 a, b, c, d, t, u, kv, r;");
  line("a = " + P.InitA + ";");
  line("b = " + P.InitB + ";");
  line("c = " + P.InitC + ";");
  line("d = " + P.InitD + ";");
  block(P.Pre, Indent);

  if (P.IsLeaf) {
    if (P.MayRaise) {
      std::string Tag = std::to_string(P.RaiseTag);
      line("if " + P.RaiseCond + " {");
      ++Indent;
      switch (T) {
      case DispatchTechnique::CutGenerated:
        line("kv = bits32[exn_top];");
        line("exn_top = exn_top - 4;");
        line("cut to kv(" + Tag + ", " + P.RaisePayload + ");");
        break;
      case DispatchTechnique::CutRuntime:
      case DispatchTechnique::UnwindRuntime:
        line("yield(" + Tag + ", " + P.RaisePayload + ") also aborts;");
        break;
      case DispatchTechnique::UnwindGenerated:
        line("return <0/1> (" + Tag + ", " + P.RaisePayload + ");");
        break;
      case DispatchTechnique::Cps:
        cmm_unreachable("CPS renders through cpsProc");
      }
      --Indent;
      line("}");
    }
    line(normalReturn(P.LeafRet));
    --Indent;
    line("}");
    return;
  }

  std::string Call = "f" + std::to_string(I + 1) + "(" + P.CallArg + ")";
  if (!Opts.UseHandlers) {
    line("r = " + Call + ";");
  } else if (isCutStrategy()) {
    if (P.HasHandler) {
      line("exn_top = exn_top + 4;");
      line("bits32[exn_top] = k;");
      line("r = " + Call + " also cuts to k also aborts;");
      line("exn_top = exn_top - 4;");
    } else {
      line("r = " + Call + " also aborts;");
    }
  } else if (T == DispatchTechnique::UnwindGenerated) {
    // Every frame participates in the branch-table method: non-handler
    // frames propagate the abnormal return, handler frames intercept it.
    line("r = " + Call + " also returns to k;");
  } else { // UnwindRuntime
    if (P.HasHandler)
      line("r = " + Call +
           " also unwinds to h0, h1, h2 also aborts descriptors desc_all;");
    else
      line("r = " + Call + " also aborts;");
  }
  block(P.Post, Indent);
  line(normalReturn("(r + " + P.RetExpr + ") ^ b"));

  // The handler mentions values computed before the call — the shape that
  // makes naive callee-saves placement and dead-code elimination unsound.
  std::string HandlerBody1 = "d = ((a + b) ^ t) + (u * 3);";
  std::string HandlerRet = normalReturn("d + " + std::to_string(P.HandlerConst));
  if (Opts.UseHandlers && isCutStrategy() && P.HasHandler) {
    line("continuation k(t, u):");
    ++Indent;
    line(HandlerBody1);
    line(HandlerRet);
    --Indent;
  } else if (T == DispatchTechnique::UnwindGenerated && Opts.UseHandlers) {
    line("continuation k(t, u):");
    ++Indent;
    if (P.HasHandler) {
      line(HandlerBody1);
      line(HandlerRet);
    } else {
      line("return <0/1> (t, u);");
    }
    --Indent;
  } else if (T == DispatchTechnique::UnwindRuntime && P.HasHandler) {
    // The dispatcher delivers only the payload; each continuation knows
    // its exception statically (Figure 9) and re-materializes the tag.
    std::string Join = "hjoin" + std::to_string(I);
    line(Join + ":");
    ++Indent;
    line(HandlerBody1);
    line(HandlerRet);
    --Indent;
    for (unsigned K = 0; K < RandomRaiseTagCount; ++K) {
      line("continuation h" + std::to_string(K) + "(u):");
      ++Indent;
      line("t = " + std::to_string(RandomRaiseTagBase + K) + ";");
      line("goto " + Join + ";");
      --Indent;
    }
  }
  --Indent;
  line("}");
}

/// Renders chain procedure \p I under CPS: the frame splits into the
/// pre-call procedure (jumped into), a success-continuation procedure
/// holding the post-call half, and optionally a handler procedure; live
/// variables travel through explicit heap closures.
void Emitter::cpsProc(unsigned I) {
  const ProcShape &P = S.Procs[I];
  std::string Name = "f" + std::to_string(I);
  line(Name + "(bits32 x, bits32 kcode, bits32 kenv, bits32 hcode, "
              "bits32 henv) {");
  ++Indent;
  line("bits32 a, b, c, d, t, u, kv, r, fr, hv;");
  line("a = " + P.InitA + ";");
  line("b = " + P.InitB + ";");
  line("c = " + P.InitC + ";");
  line("d = " + P.InitD + ";");
  block(P.Pre, Indent);

  if (P.IsLeaf) {
    if (P.MayRaise) {
      line("if " + P.RaiseCond + " {");
      ++Indent;
      line("jump hcode(henv, " + std::to_string(P.RaiseTag) + ", " +
           P.RaisePayload + ");");
      --Indent;
      line("}");
    }
    line("jump kcode(kenv, " + P.LeafRet + ");");
    --Indent;
    line("}");
    return;
  }

  // Success closure: the whole variable pool plus the caller continuation.
  line("fr = hp;");
  line("hp = hp + 28;");
  line("bits32[fr] = x;");
  line("bits32[fr + 4] = a;");
  line("bits32[fr + 8] = b;");
  line("bits32[fr + 12] = c;");
  line("bits32[fr + 16] = d;");
  line("bits32[fr + 20] = kcode;");
  line("bits32[fr + 24] = kenv;");
  std::string Callee = "f" + std::to_string(I + 1);
  if (P.HasHandler) {
    line("hv = hp;");
    line("hp = hp + 16;");
    line("bits32[hv] = a;");
    line("bits32[hv + 4] = b;");
    line("bits32[hv + 8] = kcode;");
    line("bits32[hv + 12] = kenv;");
    line("jump " + Callee + "(" + P.CallArg + ", " + Name + "_k, fr, " +
         Name + "_h, hv);");
  } else {
    line("jump " + Callee + "(" + P.CallArg + ", " + Name +
         "_k, fr, hcode, henv);");
  }
  --Indent;
  line("}");

  line(Name + "_k(bits32 env, bits32 r) {");
  ++Indent;
  line("bits32 x, a, b, c, d, t, u, kv, kcode, kenv;");
  line("x = bits32[env];");
  line("a = bits32[env + 4];");
  line("b = bits32[env + 8];");
  line("c = bits32[env + 12];");
  line("d = bits32[env + 16];");
  line("kcode = bits32[env + 20];");
  line("kenv = bits32[env + 24];");
  block(P.Post, Indent);
  line("jump kcode(kenv, (r + " + P.RetExpr + ") ^ b);");
  --Indent;
  line("}");

  if (P.HasHandler) {
    line(Name + "_h(bits32 env, bits32 t, bits32 u) {");
    ++Indent;
    line("bits32 a, b, d, kcode, kenv;");
    line("a = bits32[env];");
    line("b = bits32[env + 4];");
    line("kcode = bits32[env + 8];");
    line("kenv = bits32[env + 12];");
    line("d = ((a + b) ^ t) + (u * 3);");
    line("jump kcode(kenv, d + " + std::to_string(P.HandlerConst) + ");");
    --Indent;
    line("}");
  }
}

void Emitter::mainProc() {
  // Under the scheduled rendering the computation itself is `sched_body`;
  // the real main (schedMain) spawns it as a green thread and joins.
  line(std::string(Opts.Scheduled ? "sched_body" : "main") + "(bits32 x) {");
  ++Indent;
  line("bits32 r, t, u;");
  switch (T) {
  case DispatchTechnique::CutGenerated:
  case DispatchTechnique::CutRuntime:
    line("exn_top = exn_stack;");
    line("r = f0(x);");
    break;
  case DispatchTechnique::UnwindGenerated:
    if (Opts.UseHandlers) {
      // f0 returns through a 1-alternate bundle; the alternate is a
      // sentinel that is unreachable because f0 always installs a handler.
      line("r = f0(x) also returns to ks;");
    } else {
      line("r = f0(x);");
    }
    break;
  case DispatchTechnique::UnwindRuntime:
    line("r = f0(x);");
    break;
  case DispatchTechnique::Cps:
    line("hp = cps_frames;");
    line("r = f0(x, cps_done, 0, cps_trap, 0);");
    break;
  }
  line("return (r);");
  if (T == DispatchTechnique::UnwindGenerated && Opts.UseHandlers) {
    line("continuation ks(t, u):");
    ++Indent;
    line("return (424242);");
    --Indent;
  }
  --Indent;
  line("}");

  if (T == DispatchTechnique::Cps) {
    line("cps_done(bits32 env, bits32 v) {");
    ++Indent;
    line("return (v);");
    --Indent;
    line("}");
    // The top-level exception continuation: unreachable because f0 always
    // installs a handler, and loudly visible as a divergence if it is not.
    line("cps_trap(bits32 env, bits32 t, bits32 u) {");
    ++Indent;
    line("return (40404040 + t + u);");
    --Indent;
    line("}");
  }

  if (Opts.Scheduled) {
    // The scheduled entry: run the whole computation in a green thread of
    // its own (fresh stack, fresh memory image) and return what join
    // observes. Any per-strategy global initialization (exn_top, hp)
    // happens inside sched_body, in the spawned thread's own memory.
    line("main(bits32 x) {");
    ++Indent;
    line("bits32 t, r;");
    line("t = yield(" + schedTagLiteral(SchedTagSpawn) + ", sched_body, x);");
    line("r = yield(" + schedTagLiteral(SchedTagJoin) + ", t);");
    line("return (r);");
    --Indent;
    line("}");
  }
}

std::string Emitter::run() {
  header();
  for (unsigned I = 0; I < S.Procs.size(); ++I) {
    if (T == DispatchTechnique::Cps)
      cpsProc(I);
    else
      directProc(I);
  }
  mainProc();
  return std::move(Out);
}

} // namespace

std::string cmm::generateRandomProgram(uint64_t Seed,
                                       const RandomProgramOptions &Opts) {
  assert(Opts.NumProcs >= 2 && "call chain needs at least two procedures");
  (void)Opts;
  ProgramShape Shape = ShapeBuilder(Seed, Opts).run();
  return Emitter(Shape, Opts).run();
}
