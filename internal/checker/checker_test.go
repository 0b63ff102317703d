package checker

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/diag"
)

func mustParse(t *testing.T, src string) *core.Module {
	t.Helper()
	m, err := asm.ParseModule("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func check(t *testing.T, src string) *Report {
	t.Helper()
	rep, err := New().Check(mustParse(t, src))
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return rep
}

// wantDiag asserts one diagnostic of the given kind/severity exists whose
// position instruction contains instFrag.
func wantDiag(t *testing.T, rep *Report, kind string, sev diag.Severity, instFrag string) diag.Diagnostic {
	t.Helper()
	for _, d := range rep.Diags {
		if d.Kind == kind && d.Sev == sev && strings.Contains(d.Pos.Inst, instFrag) {
			return d
		}
	}
	t.Fatalf("no %s %s at inst containing %q; got:\n%s", sev, kind, instFrag, renderAll(rep))
	return diag.Diagnostic{}
}

func renderAll(rep *Report) string {
	var sb strings.Builder
	for _, d := range rep.Diags {
		sb.WriteString("  " + d.String() + "\n")
	}
	if sb.Len() == 0 {
		return "  (no diagnostics)"
	}
	return sb.String()
}

func TestUseAfterFree(t *testing.T) {
	rep := check(t, `
int %main() {
entry:
	%p = malloc int
	store int 1, int* %p
	free int* %p
	%v = load int* %p
	ret int %v
}
`)
	d := wantDiag(t, rep, KindUseAfterFree, diag.Error, "load int* %p")
	if d.Pos.Fn != "main" || d.Pos.Block != "entry" {
		t.Fatalf("bad position %+v", d.Pos)
	}
}

func TestDoubleFree(t *testing.T) {
	rep := check(t, `
void %main() {
entry:
	%p = malloc int
	free int* %p
	free int* %p
	ret void
}
`)
	wantDiag(t, rep, KindDoubleFree, diag.Error, "free int* %p")
}

func TestFreeOfAlloca(t *testing.T) {
	rep := check(t, `
void %main() {
entry:
	%a = alloca int
	free int* %a
	ret void
}
`)
	wantDiag(t, rep, KindFreeOfStack, diag.Error, "free int* %a")
}

func TestFreeOfGlobal(t *testing.T) {
	rep := check(t, `
%g = global int 0

void %main() {
entry:
	free int* %g
	ret void
}
`)
	d := wantDiag(t, rep, KindFreeOfGlobal, diag.Error, "free int* %g")
	if !strings.Contains(d.Msg, "%g") {
		t.Fatalf("message should name the global: %s", d.Msg)
	}
}

func TestUninitLoad(t *testing.T) {
	rep := check(t, `
int %main() {
entry:
	%a = alloca int
	%v = load int* %a
	ret int %v
}
`)
	wantDiag(t, rep, KindUninitLoad, diag.Error, "load int* %a")
}

func TestNullDeref(t *testing.T) {
	rep := check(t, `
int %main() {
entry:
	%v = load int* null
	ret int %v
}
`)
	wantDiag(t, rep, KindNullDeref, diag.Error, "load int* null")
}

func TestFreeOfNullIsSilent(t *testing.T) {
	rep := check(t, `
void %main() {
entry:
	free int* null
	ret void
}
`)
	if len(rep.Diags) != 0 {
		t.Fatalf("free(null) is a defined no-op, want no diagnostics:\n%s", renderAll(rep))
	}
}

func TestCleanProgramNoDiagnostics(t *testing.T) {
	rep := check(t, `
int %main() {
entry:
	%a = alloca int
	store int 1, int* %a
	%p = malloc int
	store int 2, int* %p
	%x = load int* %a
	%y = load int* %p
	%s = add int %x, %y
	free int* %p
	ret int %s
}
`)
	if len(rep.Diags) != 0 {
		t.Fatalf("clean program, want no diagnostics:\n%s", renderAll(rep))
	}
}

// A free on one path only must downgrade later uses to warnings — the
// zero-false-error contract forbids an error for a may-fact.
func TestMayFreeIsWarningNotError(t *testing.T) {
	rep := check(t, `
int %f(int %n) {
entry:
	%p = malloc int
	store int 1, int* %p
	%c = setgt int %n, 0
	br bool %c, label %doFree, label %join

doFree:
	free int* %p
	br label %join

join:
	%v = load int* %p
	ret int %v
}
`)
	wantDiag(t, rep, KindUseAfterFree, diag.Warning, "load int* %p")
	if n := rep.Stats.Errors; n != 0 {
		t.Fatalf("may-free must not produce errors, got %d:\n%s", n, renderAll(rep))
	}
}

// The classic "if (p != null)" guard suppresses null-deref findings in the
// dominated region.
func TestNullGuardSuppression(t *testing.T) {
	src := `
int %f(int %n) {
entry:
	%c0 = seteq int %n, 0
	br bool %c0, label %mk, label %merge

mk:
	%m = malloc int
	store int 7, int* %m
	br label %merge

merge:
	%p = phi int* [ null, %entry ], [ %m, %mk ]
	%c = setne int* %p, null
	br bool %c, label %deref, label %out

deref:
	%v = load int* %p
	ret int %v

out:
	ret int 0
}
`
	rep := check(t, src)
	for _, d := range rep.Diags {
		if d.Kind == KindNullDeref {
			t.Fatalf("guarded deref must not report null-deref: %s", d)
		}
	}

	// Remove the guard: the same dereference becomes a possible-null warning.
	unguarded := strings.Replace(src, "%c = setne int* %p, null", "%c = setne int %n, 5", 1)
	rep = check(t, unguarded)
	wantDiag(t, rep, KindNullDeref, diag.Warning, "load int* %p")
	if rep.Stats.Errors != 0 {
		t.Fatalf("possibly-null is a warning, got errors:\n%s", renderAll(rep))
	}
}

// Interprocedural: the callee's must-free summary turns the caller's second
// free into a definite double free.
func TestInterprocMustFree(t *testing.T) {
	rep := check(t, `
internal void %destroy(int* %p) {
entry:
	free int* %p
	ret void
}

void %main() {
entry:
	%p = malloc int
	call void %destroy(int* %p)
	free int* %p
	ret void
}
`)
	wantDiag(t, rep, KindDoubleFree, diag.Error, "free int* %p")
}

// Interprocedural: a callee proven to return fresh heap memory makes the
// returned pointer a tracked site, so free-then-use is a definite UAF.
func TestInterprocReturnsFresh(t *testing.T) {
	rep := check(t, `
internal int* %make() {
entry:
	%p = malloc int
	store int 1, int* %p
	ret int* %p
}

int %main() {
entry:
	%q = call int* %make()
	free int* %q
	%v = load int* %q
	ret int %v
}
`)
	wantDiag(t, rep, KindUseAfterFree, diag.Error, "load int* %q")
}

// An escaped pointer may be freed by any callee that can free reachable
// memory — uses after such a call are warnings, never errors.
func TestEscapedSiteMayFree(t *testing.T) {
	rep := check(t, `
%keep = global int* null

internal void %reaper() {
entry:
	%p = load int** %keep
	free int* %p
	ret void
}

int %main() {
entry:
	%p = malloc int
	store int 1, int* %p
	store int* %p, int** %keep
	call void %reaper()
	%v = load int* %p
	ret int %v
}
`)
	wantDiag(t, rep, KindUseAfterFree, diag.Warning, "load int* %p")
	if rep.Stats.Errors != 0 {
		t.Fatalf("escaped may-free must stay a warning:\n%s", renderAll(rep))
	}
}

// Points-to refinement: freeing a pointer loaded back out of a struct
// field is invisible to local origin tracking (loads resolve to unknown),
// but DSA proves the field only ever held a stack address.
func TestDSARefinedFreeOfStack(t *testing.T) {
	rep := check(t, `
%box = type { int*, int }

int %main() {
entry:
	%b = alloca %box
	%a = alloca int
	store int 5, int* %a
	%f0 = getelementptr %box* %b, long 0, ubyte 0
	store int* %a, int** %f0
	%p = load int** %f0
	free int* %p
	ret int 0
}
`)
	wantDiag(t, rep, KindFreeOfStack, diag.Error, "free int* %p")
}

func TestUnreachableCode(t *testing.T) {
	rep := check(t, `
int %main() {
entry:
	ret int 0

dead:
	ret int 1
}
`)
	d := wantDiag(t, rep, KindUnreachable, diag.Warning, "ret int 1")
	if d.Pos.Block != "dead" {
		t.Fatalf("bad block: %+v", d.Pos)
	}
}

func TestDeadStore(t *testing.T) {
	rep := check(t, `
int %main() {
entry:
	%a = alloca int
	store int 1, int* %a
	store int 2, int* %a
	%v = load int* %a
	ret int %v
}
`)
	wantDiag(t, rep, KindDeadStore, diag.Warning, "store int 1")
	for _, d := range rep.Diags {
		if d.Kind == KindDeadStore && strings.Contains(d.Pos.Inst, "store int 2") {
			t.Fatalf("live store flagged dead: %s", d)
		}
	}
}

// MinSeverity filters warnings out of the report.
func TestMinSeverity(t *testing.T) {
	c := New()
	c.MinSeverity = diag.Error
	rep, err := c.Check(mustParse(t, `
int %main() {
entry:
	ret int 0

dead:
	ret int 1
}
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diags) != 0 {
		t.Fatalf("warnings should be filtered:\n%s", renderAll(rep))
	}
}

const mixedModule = `
%keep = global int* null

internal void %destroy(int* %p) {
entry:
	free int* %p
	ret void
}

internal int* %make() {
entry:
	%p = malloc int
	store int 1, int* %p
	ret int* %p
}

internal int %uaf() {
entry:
	%p = malloc int
	free int* %p
	%v = load int* %p
	ret int %v
}

internal void %dfree() {
entry:
	%p = malloc int
	call void %destroy(int* %p)
	free int* %p
	ret void
}

internal int %uninit() {
entry:
	%a = alloca int
	%v = load int* %a
	ret int %v
}

internal int %clean(int %n) {
entry:
	%q = call int* %make()
	%v = load int* %q
	call void %destroy(int* %q)
	%s = add int %v, %n
	ret int %s
}

int %main() {
entry:
	%a = call int %uaf()
	%b = call int %uninit()
	%c = call int %clean(int 3)
	call void %dfree()
	%t0 = add int %a, %b
	%t1 = add int %t0, %c
	ret int %t1
}
`

// The diagnostic set must be byte-identical at any worker count.
func TestParallelDeterminism(t *testing.T) {
	m := mustParse(t, mixedModule)
	var want []string
	for _, j := range []int{1, 2, 8} {
		c := New()
		c.Parallelism = j
		rep, err := c.Check(m)
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		var got []string
		for _, d := range rep.Diags {
			got = append(got, d.String())
		}
		if want == nil {
			want = got
			if len(want) == 0 {
				t.Fatal("mixed module should produce diagnostics")
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("j=%d: %d diags, want %d", j, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("j=%d diag %d:\n got %s\nwant %s", j, i, got[i], want[i])
			}
		}
	}
}

// With a shared manager, the second run serves summaries and points-to from
// the extension cache; they survive a Prune while the module is unchanged
// and drop once an edit moves its version.
func TestManagerCaching(t *testing.T) {
	m := mustParse(t, mixedModule)
	am := analysis.NewManager()
	c := New()
	c.AM = am

	if _, err := c.Check(m); err != nil {
		t.Fatal(err)
	}
	am.Prune(m)
	rep, err := c.Check(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.CacheHits == 0 {
		t.Fatal("second run should hit the extension cache")
	}

	// Any edit drops them at the next Prune.
	var f *core.Function
	for _, fn := range m.Funcs {
		if !fn.IsDeclaration() {
			f = fn
			break
		}
	}
	before := am.Stats()
	f.Entry().InsertAt(0, core.NewAlloca(core.IntType, nil))
	am.Prune(m)
	if am.Stats().Invalidations == before.Invalidations {
		t.Fatal("an edit must drop the extension entries")
	}
	if _, err := c.Check(m); err != nil {
		t.Fatal(err)
	}
	if am.Stats().Misses == before.Misses {
		t.Fatal("the run after an edit should recompute")
	}
}

// The pass adapter is read-only: it reports no changes and moves no stamp,
// so every analysis cached for the module survives it.
func TestPassAdapter(t *testing.T) {
	m := mustParse(t, mixedModule)
	v := m.Version()
	p := NewPass(nil)
	if n := p.RunOnModule(m); n != 0 {
		t.Fatalf("checker pass must not report changes, got %d", n)
	}
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if p.Last == nil || p.Last.Stats.Diagnostics == 0 {
		t.Fatal("pass should record its report")
	}
	if m.Version() != v {
		t.Fatalf("checker pass moved the module version %d -> %d", v, m.Version())
	}
}

// Recursive functions must not wedge the bottom-up summary pass and must
// stay conservative (no definite claims through the cycle).
func TestRecursionConservative(t *testing.T) {
	rep := check(t, `
internal void %rec(int* %p, int %n) {
entry:
	%c = setgt int %n, 0
	br bool %c, label %again, label %done

again:
	%n1 = sub int %n, 1
	call void %rec(int* %p, int %n1)
	br label %done

done:
	ret void
}

void %main() {
entry:
	%p = malloc int
	store int 1, int* %p
	call void %rec(int* %p, int 3)
	free int* %p
	ret void
}
`)
	if rep.Stats.Errors != 0 {
		t.Fatalf("recursion must stay conservative (warnings only):\n%s", renderAll(rep))
	}
}
