package persist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gauntlet/internal/core"
	"gauntlet/internal/corpus"
)

func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{11, 22, 33}
	for _, fp := range want {
		if err := st.AppendFinding(core.Finding{Fingerprint: fp, Detail: "d"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, n, err := st2.KnownFindings()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("replayed %d records, want %d", n, len(want))
	}
	for i, fp := range want {
		if got[i] != fp {
			t.Fatalf("fingerprint %d = %d, want %d", i, got[i], fp)
		}
	}
}

// A crash mid-Append can only tear the final line; replay must deliver
// every intact record and silently drop the torn tail.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(map[string]int{"a": 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Torn write: half a record, no newline.
	if _, err := f.WriteString(`{"a": 3, "tr`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	n, err := Replay(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatalf("torn tail must be tolerated, got %v", err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records, want 2", n)
	}
}

// Interior corruption — a malformed line with intact records after it —
// is not a crash signature and must fail loudly.
func TestJournalInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	content := "{\"a\":1}\nnot json at all\n{\"a\":2}\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(path, func([]byte) error { return nil }); err == nil {
		t.Fatal("interior corruption must be an error")
	}
}

func TestReplayMissingFile(t *testing.T) {
	n, err := Replay(filepath.Join(t.TempDir(), "nope.jsonl"), func([]byte) error { return nil })
	if err != nil || n != 0 {
		t.Fatalf("missing journal = (%d, %v), want (0, nil)", n, err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if cp, err := st.LoadCheckpoint(); err != nil || cp != nil {
		t.Fatalf("fresh dir checkpoint = (%v, %v), want (nil, nil)", cp, err)
	}
	in := &Checkpoint{
		NextSlot: 96, Seed: 42, MutateRatio: 0.5,
		Totals: Totals{Programs: 96, Findings: 3, Quarantined: 2},
		Epoch:  1,
	}
	if err := st.SaveCheckpoint(in); err != nil {
		t.Fatal(err)
	}
	// Overwrite (the atomic-replace path), then read back the newer one.
	in.NextSlot = 128
	in.Totals.Programs = 128
	if err := st.SaveCheckpoint(in); err != nil {
		t.Fatal(err)
	}
	out, err := st.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(in)
	b, _ := json.Marshal(out)
	if string(a) != string(b) {
		t.Fatalf("checkpoint round-trip mismatch:\n%s\n%s", a, b)
	}
	// No temp litter from the atomic ritual.
	matches, _ := filepath.Glob(filepath.Join(dir, "checkpoint.json.tmp*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

func TestWriteQuarantine(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := core.QuarantineRecord{
		Stage: "oracle", Seed: 7, Kind: "panic",
		Symptom: "boom", Source: "// prog\n",
	}
	if err := st.WriteQuarantine(rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "quarantine", "oracle_7_panic.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back core.QuarantineRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != rec {
		t.Fatalf("quarantine round-trip mismatch: %+v != %+v", back, rec)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "oracle_7_panic.p4")); err != nil {
		t.Fatalf("witness source not written: %v", err)
	}
}

// TestJournalProvenanceCompat: the provenance field is additive. New
// records round-trip the full trace; journal lines written before the
// provenance schema existed (no "provenance" key) replay with a nil
// Provenance instead of erroring — a resumed daemon must re-read its
// own history regardless of which version wrote it.
func TestJournalProvenanceCompat(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rich := core.Finding{
		Seed: 42, Detail: "d", Fingerprint: 777,
		Provenance: &core.Provenance{
			Slot: 42, Origin: "mutate",
			Mutations:  []string{"swap-tables"},
			GenerateNs: 100, CompileNs: 200, OracleNs: 300,
			QueryTiers: map[string]uint64{"cdcl": 2, "simplified": 5},
		},
	}
	if err := st.AppendFinding(rich); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A legacy record, appended raw: exactly what a pre-provenance build
	// wrote.
	legacy := `{"kind":"crash","seed":9,"backend":"v1model","pass":"LegacyPass","detail":"legacy","fingerprint":424242}`
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(legacy + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	fps, n, err := st2.KnownFindings()
	if err != nil {
		t.Fatalf("replay over mixed-version journal: %v", err)
	}
	if n != 2 || len(fps) != 2 || fps[0] != 777 || fps[1] != 424242 {
		t.Fatalf("replayed %d records %v, want [777 424242]", n, fps)
	}
	var got []core.Finding
	if _, err := Replay(filepath.Join(dir, "journal.jsonl"), func(line []byte) error {
		var f core.Finding
		if err := json.Unmarshal(line, &f); err != nil {
			return err
		}
		got = append(got, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got[1].Provenance != nil {
		t.Errorf("legacy record grew a provenance: %+v", got[1].Provenance)
	}
	p := got[0].Provenance
	if p == nil {
		t.Fatal("new record lost its provenance")
	}
	if p.Slot != 42 || p.Origin != "mutate" || len(p.Mutations) != 1 ||
		p.GenerateNs != 100 || p.CompileNs != 200 || p.OracleNs != 300 ||
		p.QueryTiers["cdcl"] != 2 || p.QueryTiers["simplified"] != 5 {
		t.Errorf("provenance round-trip mismatch: %+v", p)
	}
}

// Reopening a journal with a torn tail and appending must not bury the
// new records behind the torn line: every intact record and both new
// ones replay, with no error.
func TestJournalReopenAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte("{\"a\":1}\n{\"a\":2}\n{\"a\": 3, \"tr"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{4, 5} {
		if err := j.Append(map[string]int{"a": v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := Replay(path, func(line []byte) error {
		got = append(got, string(line))
		return nil
	}); err != nil {
		t.Fatalf("replay after reopen: %v", err)
	}
	want := `{"a":1} {"a":2} {"a":4} {"a":5}`
	if strings.Join(got, " ") != want {
		t.Fatalf("replayed %q, want %s", got, want)
	}
}

// FuzzJournalReopen reopens a journal holding arbitrary bytes, appends
// two records and replays. Only the bytes through the last newline
// survive the reopen, and after the appends each of their lines is
// interior: replay must fail exactly when one of them is malformed, and
// otherwise return their records followed by the two new ones. Its seed
// corpus is under testdata/fuzz/FuzzJournalReopen.
func FuzzJournalReopen(f *testing.F) {
	f.Fuzz(func(t *testing.T, initial []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, initial, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []int{-1, -2} {
			if err := j.Append(map[string]int{"appended": v}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		var want []string
		corrupt := false
		kept := initial[:bytes.LastIndexByte(initial, '\n')+1]
		for _, line := range bytes.SplitAfter(kept, []byte("\n")) {
			// Replay reads lines as bufio.ScanLines does: without the
			// newline and a carriage return before it.
			line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
			switch {
			case len(line) == 0:
			case json.Valid(line):
				want = append(want, string(line))
			default:
				corrupt = true
			}
		}
		want = append(want, `{"appended":-1}`, `{"appended":-2}`)

		var got []string
		_, err = Replay(path, func(line []byte) error {
			got = append(got, string(line))
			return nil
		})
		if corrupt {
			if err == nil {
				t.Fatalf("replay of %q accepted a malformed interior line", initial)
			}
			return
		}
		if err != nil {
			t.Fatalf("replay of %q: %v", initial, err)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("replay of %q = %q, want %q", initial, got, want)
		}
	})
}

// FuzzLoadCheckpoint loads arbitrary bytes as a checkpoint. The load
// fails, or the checkpoint's corpus restores or fails to restore with an
// error; no input panics. A corpus that restores snapshots to a snapshot
// that restores and snapshots to itself again. Its seed corpus is under
// testdata/fuzz/FuzzLoadCheckpoint: a checkpoint a 16-slot mutating run
// wrote, an empty file, that checkpoint truncated, that checkpoint with a
// seed source that does not parse, and a checkpoint without a corpus.
func FuzzLoadCheckpoint(f *testing.F) {
	path := filepath.Join(f.TempDir(), "checkpoint.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		c, err := corpus.FromSnapshot(cp.Corpus)
		if err != nil {
			return
		}
		once := c.Snapshot()
		again, err := corpus.FromSnapshot(once)
		if err != nil {
			t.Fatalf("a restored corpus snapshots to one that does not restore: %v", err)
		}
		a, _ := json.Marshal(once)
		b, _ := json.Marshal(again.Snapshot())
		if !bytes.Equal(a, b) {
			t.Fatalf("snapshot changed across a restore:\n%s\n%s", a, b)
		}
	})
}
