package codegen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
)

// goldenExecSHA pins every tier-2 translation LowerExec produces, with and
// without block counters, over the golden corpus and edgeShapes: code,
// copy lists, constant pool, side tables, temp register and register
// counts. Changing how tier 2 is lowered without changing what it lowers
// to must leave it alone.
const goldenExecSHA = "1290ab9828a47be72f4662967dddcf1145253e3b5b764b03dcedd6498d8e6b4d"

// TestLowerExecGolden holds the tier-2 lowering to the exact translations
// it produced when the corpus was pinned.
func TestLowerExecGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole workload suite")
	}
	mods := append(goldenCorpus(t), goldenModule{"shapes", parseShapes(t)})
	h := sha256.New()
	for _, gm := range mods {
		for _, f := range gm.m.Funcs {
			if f.IsDeclaration() {
				continue
			}
			for _, counts := range []bool{false, true} {
				fmt.Fprintf(h, "%s %s counts=%v\n", gm.name, f.Name(), counts)
				ef, err := codegen.LowerExec(f, counts)
				if err != nil {
					fmt.Fprintf(h, "error %v\n", err)
					continue
				}
				hashEFunction(h, ef)
			}
		}
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != goldenExecSHA {
		t.Fatalf("tier-2 translations differ from the pinned corpus: sha256 %s, want %s", sum, goldenExecSHA)
	}
}

// hashEFunction writes every field of ef into w, naming functions and
// globals rather than printing them.
func hashEFunction(w io.Writer, ef *codegen.EFunction) {
	fmt.Fprintln(w, ef.NumRegs, ef.NumArgs, ef.TempReg, ef.ConstBase, ef.Variadic, ef.NumBlocks)
	fmt.Fprintln(w, ef.Code)
	fmt.Fprintln(w, ef.CopyLists)
	for _, c := range ef.Consts {
		fmt.Fprintln(w, constKey(c))
	}
	for _, cs := range ef.Calls {
		target := ""
		if cs.Target != nil {
			target = cs.Target.Name()
		}
		fmt.Fprintln(w, target, cs.Callee, cs.Args, cs.Invoke, cs.Normal, cs.Unwind)
	}
	fmt.Fprintln(w, ef.Geps, ef.Switches)
	for _, c := range ef.Casts {
		fmt.Fprintln(w, c.From.String(), c.To.String())
	}
	for _, t := range ef.Types {
		fmt.Fprintln(w, t.String())
	}
	for _, src := range ef.SrcOf {
		if src == nil {
			fmt.Fprint(w, "- ")
			continue
		}
		fmt.Fprint(w, src.Opcode(), " ")
	}
	fmt.Fprintln(w, ef.BlockOf)
}

// constKey names a pooled constant: globals and functions by name, every
// other constant by type and printed form.
func constKey(c core.Constant) string {
	switch g := c.(type) {
	case *core.Function:
		return "function " + g.Name()
	case *core.GlobalVariable:
		return "global " + g.Name()
	}
	return fmt.Sprintf("%T %s %v", c, c.Type(), c)
}
