package compiler_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/generator"
	"gauntlet/internal/mutate"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/printer"
)

// TestCompileMatchesReference compiles every input with Compile and with
// RefCompile (the verbatim Compile that cloned before every pass) and
// requires the same snapshots, trace, final program and error. Inputs:
// both reference pipelines on generator programs and their mutants, and
// every registry defect on its own platform's pipeline, on its witness
// and on generator programs.
func TestCompileMatchesReference(t *testing.T) {
	const seeds = 64
	donor := generator.Generate(generator.DefaultConfig(seeds))
	for _, backend := range []generator.Backend{generator.V1Model, generator.TNA} {
		platform := core.PlatformOf(backend)
		passes, err := core.Pipeline(platform)
		if err != nil {
			t.Fatal(err)
		}
		c := compiler.New(passes...)
		for seed := int64(0); seed < seeds; seed++ {
			prog := generatedProgram(backend, seed)
			name := fmt.Sprintf("%s seed %d", platform, seed)
			compareCompile(t, c, name, prog)
			if m, _, ok := mutate.Program(rand.New(rand.NewSource(seed)), prog, donor, 3); ok {
				compareCompile(t, c, name+" mutant", m)
			}
		}
	}

	for _, b := range bugs.Load().Bugs {
		passes, err := core.Pipeline(b.Platform, b)
		if err != nil {
			t.Fatal(err)
		}
		c := compiler.New(passes...)
		witness, err := parser.Parse(b.Witness)
		if err != nil {
			t.Fatalf("%s: witness: %v", b.ID, err)
		}
		compareCompile(t, c, b.ID+" witness", witness)
		backend := generator.V1Model
		if b.Platform == bugs.Tofino {
			backend = generator.TNA
		}
		for seed := int64(0); seed < 3; seed++ {
			compareCompile(t, c, fmt.Sprintf("%s seed %d", b.ID, seed), generatedProgram(backend, seed))
		}
	}
}

func generatedProgram(backend generator.Backend, seed int64) *ast.Program {
	cfg := generator.DefaultConfig(seed)
	cfg.Backend = backend
	return generator.Generate(cfg)
}

// compareCompile runs both compilers on prog and reports every difference.
// Final is compared structurally as well as printed: the device
// interprets it, so type objects the printer does not show count too.
func compareCompile(t *testing.T, c *compiler.Compiler, name string, prog *ast.Program) {
	t.Helper()
	want, werr := compiler.RefCompile(c, prog)
	got, gerr := c.Compile(prog)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Errorf("%s: error %v, reference %v", name, gerr, werr)
		return
	}
	if werr != nil {
		return
	}
	if len(got.Snapshots) != len(want.Snapshots) {
		t.Errorf("%s: %d snapshots, reference %d", name, len(got.Snapshots), len(want.Snapshots))
		return
	}
	for i, w := range want.Snapshots {
		g := got.Snapshots[i]
		if g.Pass != w.Pass || g.Text != w.Text || g.Hash != w.Hash ||
			printer.Print(g.Prog) != printer.Print(w.Prog) {
			t.Errorf("%s: snapshot %d (%s) differs from the reference (%s)", name, i, g.Pass, w.Pass)
		}
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Errorf("%s: trace %+v, reference %+v", name, got.Trace, want.Trace)
	}
	if printer.Print(got.Final) != printer.Print(want.Final) ||
		!sameTree(reflect.ValueOf(got.Final), reflect.ValueOf(want.Final)) {
		t.Errorf("%s: final program differs from the reference", name)
	}
}

// sameTree is reflect.DeepEqual, except that a nil slice equals an empty
// one: ast.CloneBlock turns a nil statement list into an empty one, so
// the reference's per-pass clones leave empty lists where Compile keeps
// the parser's nil. Nothing reads that difference.
func sameTree(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameTree(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameTree(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameTree(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}
