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

// TestOutputBytes: p4interp -gen and -pkt print the bytes in testdata
// for the two-header witness (h2 is parsed only when h1.f3 is 0x0800),
// and exit 0. The packets take both parser paths and one is too short
// for h1.
func TestOutputBytes(t *testing.T) {
	prog := witnessFile(t, "BMV2-S-01")
	for _, tc := range []struct {
		golden string
		args   [][]string
	}{
		{"testdata/gen.golden", [][]string{{"-gen"}}},
		{"testdata/pkt.golden", [][]string{
			{"-pkt", "010208002a"},
			{"-pkt", "01020001"},
			{"-pkt", "0102"},
		}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		for _, args := range tc.args {
			var stderr bytes.Buffer
			if code := run(append(args, prog), &stdout, &stderr); code != 0 {
				t.Errorf("%v: exit code %d, stderr:\n%s", args, code, stderr.String())
			}
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("output differs from %s; got:\n%s", tc.golden, got)
		}
	}
}
