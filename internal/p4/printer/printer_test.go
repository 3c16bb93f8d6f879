package printer_test

import (
	"hash/fnv"
	"testing"
	"testing/quick"

	"gauntlet/internal/bugs"
	"gauntlet/internal/generator"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/printer"
)

// TestRoundTripGeneratedPrograms: print∘parse is the identity (modulo
// formatting, hence compared on re-printed text) for arbitrary generated
// programs — the invariant the compiler driver relies on when it re-parses
// every emitted snapshot.
func TestRoundTripGeneratedPrograms(t *testing.T) {
	f := func(seed int64) bool {
		prog := generator.Generate(generator.DefaultConfig(seed % 10000))
		t1 := printer.Print(prog)
		p2, err := parser.Parse(t1)
		if err != nil {
			t.Logf("seed %d: reparse failed: %v", seed, err)
			return false
		}
		return printer.Print(p2) == t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintDetectsChange: any AST mutation must change the
// fingerprint (the pass-skipping hash, §5.2).
func TestFingerprintDetectsChange(t *testing.T) {
	prog := generator.Generate(generator.DefaultConfig(3))
	h1 := printer.Fingerprint(prog)
	clone := ast.CloneProgram(prog)
	if printer.Fingerprint(clone) != h1 {
		t.Fatal("clone fingerprint differs from original")
	}
	// Mutate one literal deep in the program.
	mutated := false
	for _, c := range clone.Controls() {
		ast.RewriteControl(c, nil, func(e ast.Expr) ast.Expr {
			if l, ok := e.(*ast.IntLit); ok && !mutated && l.Width > 0 {
				mutated = true
				return ast.Num(l.Width, l.Val+1)
			}
			return e
		})
	}
	if !mutated {
		t.Skip("no literal to mutate")
	}
	if printer.Fingerprint(clone) == h1 {
		t.Fatal("fingerprint unchanged after mutation")
	}
}

// hashPrinted is FNV-1a over the built text, the plain hash/fnv way.
func hashPrinted(text string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(text))
	return h.Sum64()
}

// TestFingerprintIsHashOfPrint: the streamed Fingerprint is FNV-1a over
// Print's text, and Hash over printed declarations is FNV-1a over
// PrintDecl's text, on generator programs of both backends and every
// registry witness.
func TestFingerprintIsHashOfPrint(t *testing.T) {
	var progs []*ast.Program
	for seed := int64(0); seed < 32; seed++ {
		for _, backend := range []generator.Backend{generator.V1Model, generator.TNA} {
			cfg := generator.DefaultConfig(seed)
			cfg.Backend = backend
			progs = append(progs, generator.Generate(cfg))
		}
	}
	for _, b := range bugs.Load().Bugs {
		p, err := parser.Parse(b.Witness)
		if err != nil {
			t.Fatalf("%s: witness: %v", b.ID, err)
		}
		progs = append(progs, p)
	}
	for i, p := range progs {
		text := printer.Print(p)
		if got, want := printer.Fingerprint(p), hashPrinted(text); got != want {
			t.Errorf("program %d: Fingerprint %#x, FNV-1a of Print %#x", i, got, want)
		}
		h := printer.NewHash()
		h.WriteString(text)
		if got, want := h.Sum64(), hashPrinted(text); got != want {
			t.Errorf("program %d: WriteString %#x, FNV-1a %#x", i, got, want)
		}
		// WriteDecl continues the running hash, as the cache's context
		// key uses it.
		all, concat := printer.NewHash(), ""
		for _, d := range p.Decls {
			all.WriteDecl(d)
			concat += printer.PrintDecl(d)
		}
		if got, want := all.Sum64(), hashPrinted(concat); got != want {
			t.Errorf("program %d: WriteDecl %#x, FNV-1a of PrintDecl %#x", i, got, want)
		}
	}
}

// TestPrecedenceMinimalParens: the printer emits minimal parentheses that
// still reparse to the same tree shape.
func TestPrecedenceMinimalParens(t *testing.T) {
	cases := []struct{ in, out string }{
		{"(a + b) + c", "a + b + c"},     // left-assoc flattening
		{"a + (b * c)", "a + b * c"},     // precedence needs no parens
		{"(a + b) * c", "(a + b) * c"},   // parens required
		{"a - (b - c)", "a - (b - c)"},   // right operand same level
		{"!(a && b)", "!(a && b)"},       // unary over logical
		{"~(a | b) & c", "~(a | b) & c"}, // unary over bitwise
		{"(a ? b : c) + d", "(a ? b : c) + d"} /* mux as operand */}
	for _, tc := range cases {
		e, err := parser.ParseExpr(tc.in)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", tc.in, err)
			continue
		}
		if got := printer.PrintExpr(e); got != tc.out {
			t.Errorf("PrintExpr(%q) = %q, want %q", tc.in, got, tc.out)
		}
	}
}
