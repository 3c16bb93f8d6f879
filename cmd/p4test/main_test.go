package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gauntlet/internal/bugs"
)

// witnessFile writes registry bug id's witness program to a temporary
// file and returns its path.
func witnessFile(t *testing.T, id string) string {
	t.Helper()
	b := bugs.Load().ByID(id)
	if b == nil {
		t.Fatalf("no bug %s in the registry", id)
	}
	path := filepath.Join(t.TempDir(), id+".p4")
	if err := os.WriteFile(path, []byte(b.Witness), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestValidateVerdicts: p4test -validate, on v1model and with the Tofino
// back end, prints the verdict lines in testdata for a registry witness
// compiled by the reference pipeline, and exits 0.
func TestValidateVerdicts(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/validate.golden", []string{"-validate"}},
		{"testdata/validate_tofino.golden", []string{"-tofino", "-validate"}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := run(append(tc.args, witnessFile(t, "TOF-S-04")), &stdout, &stderr)
		if code != 0 {
			t.Errorf("%v: exit code %d, stderr:\n%s", tc.args, code, stderr.String())
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("%v: output differs from %s; got:\n%s", tc.args, tc.golden, got)
		}
	}
}
