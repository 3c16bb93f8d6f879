package validate

import (
	"hash/fnv"
	"testing"

	"gauntlet/internal/bugs"
	"gauntlet/internal/generator"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/printer"
)

// TestCacheKeysUnchanged: the context and block keys, which the printer
// hashes as it prints, equal hash/fnv's FNV-1a over the built PrintDecl
// text, on generator programs of both backends and every registry
// witness.
func TestCacheKeysUnchanged(t *testing.T) {
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
	for i, prog := range progs {
		want := fnv.New64a()
		for _, d := range prog.Decls {
			switch d.(type) {
			case *ast.ControlDecl, *ast.ParserDecl:
				continue
			}
			want.Write([]byte(printer.PrintDecl(d)))
		}
		consts := contextKey(prog)
		if consts != want.Sum64() {
			t.Errorf("program %d: contextKey %#x, want %#x", i, consts, want.Sum64())
		}
		for _, d := range prog.Decls {
			want := fnv.New64a()
			var buf [8]byte
			for i := 0; i < 8; i++ {
				buf[i] = byte(consts >> (8 * i))
			}
			want.Write(buf[:])
			want.Write([]byte(printer.PrintDecl(d)))
			if got := blockKey(consts, d); got != want.Sum64() {
				t.Errorf("program %d: blockKey %#x, want %#x", i, got, want.Sum64())
			}
		}
	}
}
