//===- costmodel/DispatchWorkloads.cpp ------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "costmodel/DispatchWorkloads.h"

#include "support/Assert.h"

using namespace cmm;

const char *cmm::dispatchTechniqueName(DispatchTechnique T) {
  switch (T) {
  case DispatchTechnique::CutGenerated: return "cut/generated";
  case DispatchTechnique::CutRuntime: return "cut/runtime";
  case DispatchTechnique::UnwindGenerated: return "unwind/generated";
  case DispatchTechnique::UnwindRuntime: return "unwind/runtime";
  case DispatchTechnique::Cps: return "cps";
  }
  return "unknown";
}

DispatcherKind cmm::runtimeDispatcher(DispatchTechnique T) {
  return T == DispatchTechnique::CutRuntime      ? DispatcherKind::Cut
         : T == DispatchTechnique::UnwindRuntime ? DispatcherKind::Unwind
                                                 : DispatcherKind::None;
}

std::string cmm::dispatchWorkloadSource(DispatchTechnique T) {
  switch (T) {
  case DispatchTechnique::CutGenerated:
    return R"(/* Figure 10: raise pops the handler stack and cuts, all in
   generated code. */
export bench;
global bits32 exn_top;
data exn_stack { bits32[512]; }

cg_raise() {
  bits32 kv;
  kv = bits32[exn_top];
  exn_top = exn_top - 4;
  cut to kv(99, 0);
}

cg_deep(bits32 n, bits32 do_raise) {
  bits32 r;
  if n == 0 {
    if do_raise == 1 { cg_raise() also aborts; }
    return (1);
  }
  r = cg_deep(n - 1, do_raise) also aborts;
  return (r);
}

bench(bits32 depth, bits32 do_raise) {
  bits32 t, a, kv, r;
  exn_top = exn_stack;
  exn_top = exn_top + 4;
  bits32[exn_top] = k;
  r = cg_deep(depth, do_raise) also cuts to k also aborts;
  exn_top = exn_top - 4;
  return (r);
continuation k(t, a):
  return (1000 + t + a);
}
)";

  case DispatchTechnique::CutRuntime:
    return R"(/* Figure 2, bottom-left: the program yields; the front-end
   runtime pops the handler stack and uses SetCutToCont. */
export bench;
global bits32 exn_top;
data exn_stack { bits32[512]; }

cr_deep(bits32 n, bits32 do_raise) {
  bits32 r;
  if n == 0 {
    if do_raise == 1 { yield(99, 0) also aborts; }
    return (1);
  }
  r = cr_deep(n - 1, do_raise) also aborts;
  return (r);
}

bench(bits32 depth, bits32 do_raise) {
  bits32 t, a, kv, r;
  exn_top = exn_stack;
  exn_top = exn_top + 4;
  bits32[exn_top] = k;
  r = cr_deep(depth, do_raise) also cuts to k also aborts;
  exn_top = exn_top - 4;
  return (r);
continuation k(t, a):
  return (1000 + t + a);
}
)";

  case DispatchTechnique::UnwindGenerated:
    return R"(/* Section 4.2's compiled unwinding: every frame propagates the
   exception through an abnormal return (the branch-table method), with no
   run-time system at all. */
export bench;

ug_deep(bits32 n, bits32 do_raise) {
  bits32 r, t, a;
  if n == 0 {
    if do_raise == 1 { return <0/1> (99, 0); }
    return <1/1> (1);
  }
  r = ug_deep(n - 1, do_raise) also returns to kp;
  return <1/1> (r);
continuation kp(t, a):
  return <0/1> (t, a);
}

bench(bits32 depth, bits32 do_raise) {
  bits32 r, t, a;
  r = ug_deep(depth, do_raise) also returns to k;
  return (r);
continuation k(t, a):
  return (1000 + t + a);
}
)";

  case DispatchTechnique::UnwindRuntime:
    return R"(/* Figures 8/9: raise yields; the dispatcher walks activations
   interpretively using descriptors and SetActivation/SetUnwindCont. */
export bench;

data desc_bench {
  bits32 1;
  bits32 99; bits32 0; bits32 1;
}

ur_deep(bits32 n, bits32 do_raise) {
  bits32 r;
  if n == 0 {
    if do_raise == 1 { yield(99, 0) also aborts; }
    return (1);
  }
  r = ur_deep(n - 1, do_raise) also aborts;
  return (r);
}

bench(bits32 depth, bits32 do_raise) {
  bits32 r, a;
  r = ur_deep(depth, do_raise)
      also unwinds to k also aborts descriptors desc_bench;
  return (r);
continuation k(a):
  return (1000 + 99 + a);
}
)";

  case DispatchTechnique::Cps:
    return R"(/* Continuation-passing style (SML/NJ): success and exception
   continuations are explicit closures; raising is one tail call. The
   paper supports this through fully general tail calls. */
export bench;
global bits32 hp;
data cps_frames { bits32[4096]; }

cps_after(bits32 env, bits32 v) {
  bits32 kc, ke;
  kc = bits32[env];
  ke = bits32[env + 4];
  jump kc(ke, v);
}

cps_done(bits32 env, bits32 v) {
  return (v);
}

cps_handler(bits32 env, bits32 t, bits32 a) {
  return (1000 + t + a);
}

cps_deep(bits32 n, bits32 do_raise, bits32 kcode, bits32 kenv,
         bits32 hcode, bits32 henv) {
  bits32 f;
  if n == 0 {
    if do_raise == 1 { jump hcode(henv, 99, 0); }
    jump kcode(kenv, 1);
  }
  f = hp;
  hp = hp + 8;
  bits32[f] = kcode;
  bits32[f + 4] = kenv;
  jump cps_deep(n - 1, do_raise, cps_after, f, hcode, henv);
}

bench(bits32 depth, bits32 do_raise) {
  bits32 r;
  hp = cps_frames;
  r = cps_deep(depth, do_raise, cps_done, 0, cps_handler, 0);
  return (r);
}
)";
  }
  cmm_unreachable("unknown dispatch technique");
}

std::string cmm::sweepWorkloadSource(DispatchTechnique T) {
  switch (T) {
  case DispatchTechnique::CutGenerated:
    return R"(export sweep;
global bits32 exn_top;
data exn_stack { bits32[512]; }

sw_body(bits32 i, bits32 period, bits32 depth) {
  bits32 r, kv;
  if depth == 0 {
    if %modu(i, period) == 0 {
      kv = bits32[exn_top];
      exn_top = exn_top - 4;
      cut to kv(99, 0);
    }
    return (1);
  }
  r = sw_body(i, period, depth - 1) also aborts;
  return (r);
}

sweep(bits32 iters, bits32 period, bits32 depth) {
  bits32 i, acc, r, t, a, kv;
  exn_top = exn_stack;
  i = 0;
  acc = 0;
loop:
  if i >= iters { return (acc); }
  exn_top = exn_top + 4;
  bits32[exn_top] = k;
  r = sw_body(i, period, depth) also cuts to k also aborts;
  exn_top = exn_top - 4;
join:
  acc = acc + r;
  i = i + 1;
  goto loop;
continuation k(t, a):
  r = 1000 + t;
  goto join;
}
)";

  case DispatchTechnique::UnwindGenerated:
    return R"(export sweep;

sw_body(bits32 i, bits32 period, bits32 depth) {
  bits32 r, t, a;
  if depth == 0 {
    if %modu(i, period) == 0 { return <0/1> (99, 0); }
    return <1/1> (1);
  }
  r = sw_body(i, period, depth - 1) also returns to kp;
  return <1/1> (r);
continuation kp(t, a):
  return <0/1> (t, a);
}

sweep(bits32 iters, bits32 period, bits32 depth) {
  bits32 i, acc, r, t, a;
  i = 0;
  acc = 0;
loop:
  if i >= iters { return (acc); }
  r = sw_body(i, period, depth) also returns to k;
join:
  acc = acc + r;
  i = i + 1;
  goto loop;
continuation k(t, a):
  r = 1000 + t;
  goto join;
}
)";

  case DispatchTechnique::UnwindRuntime:
    return R"(export sweep;

data desc_sweep {
  bits32 1;
  bits32 99; bits32 0; bits32 1;
}

sw_body(bits32 i, bits32 period, bits32 depth) {
  bits32 r;
  if depth == 0 {
    if %modu(i, period) == 0 { yield(99, 0) also aborts; }
    return (1);
  }
  r = sw_body(i, period, depth - 1) also aborts;
  return (r);
}

sweep(bits32 iters, bits32 period, bits32 depth) {
  bits32 i, acc, r, t;
  i = 0;
  acc = 0;
loop:
  if i >= iters { return (acc); }
  r = sw_body(i, period, depth)
      also unwinds to k also aborts descriptors desc_sweep;
join:
  acc = acc + r;
  i = i + 1;
  goto loop;
continuation k(t):
  /* The handler knows its exception statically (tag 99); the dispatcher
     delivers only the argument. */
  r = 1000 + 99 + t;
  goto join;
}
)";

  default:
    cmm_unreachable("sweep workload defined only for the techniques with a "
                    "scope-entry/raise cost trade-off");
  }
}
