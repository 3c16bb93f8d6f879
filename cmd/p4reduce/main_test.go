package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gauntlet/internal/bugs"
	"gauntlet/internal/core"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/types"
)

// symptom examines prog with bug's instrumented pipeline, validation on,
// and renders the outcome's kind, pass and crash message.
func symptom(t *testing.T, bug *bugs.Bug, prog *ast.Program) string {
	t.Helper()
	passes, err := core.Pipeline(bug.Platform, bug)
	if err != nil {
		t.Fatal(err)
	}
	o := &core.Oracle{Passes: passes, MaxConflicts: 50000, Validate: true}
	out := o.Examine(context.Background(), prog)
	switch {
	case out.Err != nil:
		t.Fatalf("oracle error: %v", out.Err)
	case out.Crash != nil:
		return fmt.Sprintf("crash in %s: %s", out.Crash.Pass, out.Crash.Msg)
	case out.Invalid != nil:
		return "invalid transform: " + out.Invalid.Error()
	case len(out.Failures) > 0:
		return "miscompilation in " + out.Failures[0].PassB
	}
	return "clean"
}

func mustCheck(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := types.Check(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestReduceKeepsSymptom: p4reduce shrinks a registry witness, and the
// reduced program, examined again, shows the input's kind, pass and
// crash message.
func TestReduceKeepsSymptom(t *testing.T) {
	for _, tc := range []struct{ id, property string }{
		{"P4C-C-01", "-crash"},
		{"P4C-S-06", "-miscompile"},
	} {
		bug := bugs.Load().ByID(tc.id)
		path := filepath.Join(t.TempDir(), tc.id+".p4")
		if err := os.WriteFile(path, []byte(bug.Witness), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-bug", tc.id, tc.property, path}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s %s: exit code %d, stderr:\n%s", tc.id, tc.property, code, stderr.String())
		}
		t.Logf("%s %s: %s", tc.id, tc.property, bytes.TrimSpace(stderr.Bytes()))
		want := symptom(t, bug, mustCheck(t, bug.Witness))
		if got := symptom(t, bug, mustCheck(t, stdout.String())); got != want {
			t.Errorf("%s %s: reduced program shows %q, input %q", tc.id, tc.property, got, want)
		}
	}
}

// TestReduceRefusesAbsentProperty: a program that does not show the
// property is refused, not reduced.
func TestReduceRefusesAbsentProperty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.p4")
	if err := os.WriteFile(path, []byte(bugs.Load().ByID("P4C-S-06").Witness), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bug", "P4C-C-01", "-crash", path}, &stdout, &stderr); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if want := "p4reduce: the property does not hold on the input program\n"; stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
}
