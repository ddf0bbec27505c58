"""Type checker tests, centred on the paper's running FPU example
(section 3) and the three safety properties of section 4.2."""

import pytest

from repro.lilac import parse_program
from repro.lilac.stdlib import standard_library, stdlib_program
from repro.lilac.typecheck import check_component, check_program, TypeCheckError

FLOPOCO_DECLS = """
gen "flopoco" comp FPAdd[#W]<G:1>(
    l: [G, G+1] #W, r: [G, G+1] #W
) -> (o: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };

gen "flopoco" comp FPMul[#W]<G:1>(
    l: [G, G+1] #W, r: [G, G+1] #W
) -> (o: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };
"""

FPU_WRONG = FLOPOCO_DECLS + """
comp FPU[#W]<G:1>(
    op: [G, G+1] 1, l: [G, G+1] #W, r: [G, G+1] #W
) -> (o: [G, G+1] #W) {
  Add := new FPAdd[#W];
  Mul := new FPMul[#W];
  add := Add<G>(l, r);
  mul := Mul<G>(l, r);
  mx := new Mux[#W]<G>(op, add.o, mul.o);
  o = mx.out;
}
"""

FPU_HALF_FIXED = FLOPOCO_DECLS + """
comp FPU[#W]<G:1>(
    op: [G, G+1] 1, l: [G, G+1] #W, r: [G, G+1] #W
) -> (o: [G, G+1] #W) {
  Add := new FPAdd[#W];
  Mul := new FPMul[#W];
  add := Add<G>(l, r);
  mul := Mul<G>(l, r);
  so := new Shift[1, Add::#L]<G>(op);
  mx := new Mux[#W]<G+Add::#L>(so.out, add.o, mul.o);
  o = mx.out;
}
"""

FPU_CORRECT = FLOPOCO_DECLS + """
comp FPU[#W]<G:1>(
    op: [G, G+1] 1, l: [G, G+1] #W, r: [G, G+1] #W
) -> (o: [G+#L, G+#L+1] #W) with { some #L where #L >= 1; } {
  Add := new FPAdd[#W];
  Mul := new FPMul[#W];
  add := Add<G>(l, r);
  mul := Mul<G>(l, r);
  let #Max = Max[Add::#L, Mul::#L]::#Out;
  sa := new Shift[#W, #Max - Add::#L]<G+Add::#L>(add.o);
  sm := new Shift[#W, #Max - Mul::#L]<G+Mul::#L>(mul.o);
  so := new Shift[1, #Max]<G>(op);
  mx := new Mux[#W]<G+#Max>(so.out, sa.out, sm.out);
  o = mx.out;
  #L := #Max;
}
"""

RESOURCE_CONFLICT = """
comp Bad[#W]<G:2>(a: [G, G+1] #W) -> (o: [G, G+1] #W) {
  A := new Add[#W];
  x := A<G>(a, a);
  y := A<G>(a, a);
  o = y.out;
}
"""

PIPELINE_DELAY_VIOLATION = """
extern comp SlowUnit[#W]<G:4>(a: [G, G+1] #W) -> (o: [G+2, G+3] #W);
comp Fast[#W]<G:1>(a: [G, G+1] #W) -> (o: [G+2, G+3] #W) {
  S := new SlowUnit[#W];
  x := S<G>(a);
  o = x.o;
}
"""

DOUBLE_DRIVE = """
comp Dup[#W]<G:1>(a: [G, G+1] #W) -> (o: [G, G+1] #W) {
  o = a;
  o = a;
}
"""

BUNDLE_OUT_OF_BOUNDS = """
comp OOB[#W, #N]<G:1>(a: [G, G+1] #W) -> (o: [G, G+1] #W)
    where #N >= 1 {
  bundle<#i> w[#N]: [G, G+1] #W;
  w{#N} = a;
  o = a;
}
"""

BUNDLE_DOUBLE_WRITE = """
comp DW[#W, #N]<G:1>(a: [G, G+1] #W) -> (o: [G, G+1] #W)
    where #N >= 2 {
  bundle<#i> w[#N]: [G, G+1] #W;
  for #k in 0..#N {
    w{0} = a;
  }
  o = a;
}
"""

WIDTH_MISMATCH = """
comp WM<G:1>(a: [G, G+1] 8) -> (o: [G, G+1] 16) {
  o = a;
}
"""

WHERE_CLAUSE_VIOLATION = """
comp Neg[#W]<G:1>(a: [G, G+1] #W) -> (o: [G+1, G+2] #W) {
  s := new Shift[#W, 0 - 1]<G>(a);
  o = s.out;
}
"""

MISSING_ASSUME = """
comp NoFact[#W, #N]<G:1>(a: [G, G+1] #W) -> (o: [G+#N, G+#N+1] #W) {
  s := new Shift[#W, #N]<G>(a);
  o = s.out;
}
"""

UNBOUND_OUTPUT_PARAM = """
comp NoBind[#W]<G:1>(a: [G, G+1] #W) -> (o: [G, G+1] #W)
    with { some #L where #L >= 1; } {
  o = a;
}
"""

UNDRIVEN_OUTPUT = """
comp NoDrive[#W]<G:1>(a: [G, G+1] #W) -> (o: [G, G+1] #W) {
  r := new Reg[#W]<G>(a);
}
"""

FAILING_ASSERT = """
comp BadAssert[#N]<G:1>(a: [G, G+1] 8) -> (o: [G, G+1] 8) {
  assert #N >= 1;
  o = a;
}
"""

#: Every source above that the checker rejects, with the component it
#: checks; ``tests/smt/test_search_pins.py`` discharges them all.
REJECTED = [
    (FPU_WRONG, "FPU"),
    (FPU_HALF_FIXED, "FPU"),
    (RESOURCE_CONFLICT, "Bad"),
    (PIPELINE_DELAY_VIOLATION, "Fast"),
    (DOUBLE_DRIVE, "Dup"),
    (BUNDLE_OUT_OF_BOUNDS, "OOB"),
    (BUNDLE_DOUBLE_WRITE, "DW"),
    (WIDTH_MISMATCH, "WM"),
    (WHERE_CLAUSE_VIOLATION, "Neg"),
    (MISSING_ASSUME, "NoFact"),
    (UNBOUND_OUTPUT_PARAM, "NoBind"),
    (UNDRIVEN_OUTPUT, "NoDrive"),
    (FAILING_ASSERT, "BadAssert"),
]


def check(source: str, name: str):
    program = stdlib_program(source)
    return check_component(program, name)


def test_stdlib_checks_clean():
    program = standard_library()
    reports = check_program(program, raise_on_error=False)
    failures = [r for r in reports if not r.ok]
    assert not failures, [str(e) for r in failures for e in r.errors]


def test_fpu_erroneous_rejected_like_section_3_2():
    """Figure 5a: reading the adder at G when its output arrives at
    G+Add::#L is rejected with a counterexample."""
    report = check(FPU_WRONG, "FPU")
    assert not report.ok
    latency_errors = [e for e in report.errors if e.kind == "latency"]
    assert latency_errors
    message = latency_errors[0].reason
    assert "available in" in message and "required in" in message
    # The counterexample pins a concrete latency >= 1.
    assert latency_errors[0].counterexample


def test_fpu_half_fixed_still_rejected():
    """Scheduling the mux at Add::#L fixes the adder read but the
    multiplier is still unbalanced (the paper's second error)."""
    report = check(FPU_HALF_FIXED, "FPU")
    assert not report.ok
    messages = " ".join(e.reason for e in report.errors)
    assert "available in" in messages


def test_fpu_balanced_accepted():
    """Figure 5b: the pipeline-balanced FPU checks for every
    parameterization."""
    report = check(FPU_CORRECT, "FPU")
    assert report.ok, [str(e) for e in report.errors]
    assert report.obligations > 10


def test_shift_register_figure6():
    program = standard_library()
    report = check_component(program, "Shift")
    assert report.ok, [str(e) for e in report.errors]


def test_resource_conflict_detected():
    """Invoking a delay-1 instance twice in the same cycle is rejected."""
    report = check(RESOURCE_CONFLICT, "Bad")
    assert not report.ok
    assert any(e.kind == "resource" for e in report.errors)


def test_resource_spacing_accepted():
    """Reusing an instance with sufficient spacing inside a slow parent."""
    source = """
    comp Ok[#W]<G:4>(a: [G, G+1] #W) -> (o: [G+2, G+3] #W) {
      A := new Add[#W];
      r := new Reg[#W]<G>(a);
      r2 := new Reg[#W]<G+1>(r.out);
      x := A<G>(a, a);
      y := A<G+2>(r2.out, r2.out);
      o = y.out;
    }
    """
    report = check(source, "Ok")
    assert report.ok, [str(e) for e in report.errors]


def test_pipeline_delay_violation():
    """A child with delay 4 cannot live inside a delay-1 parent."""
    report = check(PIPELINE_DELAY_VIOLATION, "Fast")
    assert not report.ok
    assert any(e.kind == "pipeline" for e in report.errors)


def test_double_drive_rejected():
    report = check(DOUBLE_DRIVE, "Dup")
    assert not report.ok
    assert any(e.kind == "conflict" for e in report.errors)


def test_conditional_drives_on_disjoint_paths_ok():
    source = """
    comp Sel[#W]<G:1>(a: [G, G+1] #W) -> (o: [G, G+1] #W) {
      if #W < 12 { o = a; }
      else { o = a; }
    }
    """
    report = check(source, "Sel")
    assert report.ok, [str(e) for e in report.errors]


def test_bundle_out_of_bounds_rejected():
    report = check(BUNDLE_OUT_OF_BOUNDS, "OOB")
    assert not report.ok
    assert any(e.kind == "bounds" for e in report.errors)


def test_bundle_double_write_rejected():
    report = check(BUNDLE_DOUBLE_WRITE, "DW")
    assert not report.ok
    assert any(e.kind == "conflict" for e in report.errors)


def test_width_mismatch_rejected():
    report = check(WIDTH_MISMATCH, "WM")
    assert not report.ok
    assert any(e.kind == "width" for e in report.errors)


def test_where_clause_violation_on_instantiation():
    report = check(WHERE_CLAUSE_VIOLATION, "Neg")
    assert not report.ok
    assert any(e.kind == "where" for e in report.errors)


def test_assume_discharges_obligation():
    """The paper: users provide additional facts with assume statements."""
    source = """
    comp NeedsFact[#W, #N]<G:1>(a: [G, G+1] #W) -> (o: [G+#N, G+#N+1] #W) {
      assume #N >= 0;
      s := new Shift[#W, #N]<G>(a);
      o = s.out;
    }
    """
    report = check(source, "NeedsFact")
    assert report.ok, [str(e) for e in report.errors]


def test_missing_assume_is_an_error():
    report = check(MISSING_ASSUME, "NoFact")
    assert not report.ok


def test_unbound_output_param_is_error():
    report = check(UNBOUND_OUTPUT_PARAM, "NoBind")
    assert not report.ok


def test_undriven_output_is_error():
    report = check(UNDRIVEN_OUTPUT, "NoDrive")
    assert not report.ok


def test_assert_command_checked():
    report = check(FAILING_ASSERT, "BadAssert")
    assert not report.ok
    assert any(e.kind == "assert" for e in report.errors)


def test_check_program_raises_on_error():
    program = stdlib_program(FPU_WRONG)
    with pytest.raises(TypeCheckError):
        check_program(program)


def test_output_param_uf_sharing():
    """Two instances of the same gen component with identical parameters
    share timing (the section 4.2 uninterpreted-function encoding)."""
    source = FLOPOCO_DECLS + """
    comp Twin[#W]<G:1>(l: [G, G+1] #W, r: [G, G+1] #W)
        -> (o: [G+#L, G+#L+1] #W) with { some #L; } {
      A := new FPAdd[#W];
      B := new FPAdd[#W];
      a := A<G>(l, r);
      b := B<G>(l, r);
      mx := new Add[#W]<G+A::#L>(a.o, b.o);
      o = mx.out;
      #L := A::#L;
    }
    """
    # b.o is available at B::#L == A::#L because both instances have the
    # same input parameter; reading it at A::#L must therefore check.
    report = check(source, "Twin")
    assert report.ok, [str(e) for e in report.errors]
