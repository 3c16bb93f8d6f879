package persist

import (
	"encoding/json"
	"os"
	"path/filepath"

	"gauntlet/internal/corpus"
)

// Checkpoint is the serve daemon's periodic consistent snapshot, taken at
// an engine fold boundary: every slot below NextSlot is fully folded into
// the corpus, no slot at or above it is. Resume restarts scheduling at
// NextSlot — programs the dead daemon had in flight past the watermark
// are reprocessed (at-least-once), with the journal's fingerprints
// suppressing re-reports.
type Checkpoint struct {
	// NextSlot is the resume watermark (the next engine StartSeed).
	NextSlot int64 `json:"next_slot"`
	// Seed is the master schedule seed the campaign runs under; resume
	// refuses a mismatch (the corpus and watermark are functions of it).
	Seed int64 `json:"seed"`
	// MutateRatio sanity-checks the schedule the same way Seed does.
	MutateRatio float64 `json:"mutate_ratio"`
	// Corpus is the complete feedback state (seeds, edge set, observed
	// fingerprints, energies); nil in a fleet coordinator's checkpoints,
	// since a fleet keeps no corpus.
	Corpus *corpus.Snapshot `json:"corpus"`
	// Totals are the cross-incarnation cumulative counters.
	Totals Totals `json:"totals"`
	// Epoch is the engine epoch index at snapshot time (informational).
	Epoch int `json:"epoch"`
}

// Totals are the campaign counters that accumulate across daemon
// incarnations: a resumed run keeps reporting lifetime numbers, not
// since-restart ones.
type Totals struct {
	Programs        uint64 `json:"programs"`
	Findings        uint64 `json:"findings"`
	Duplicates      uint64 `json:"duplicates"`
	ToolErrors      uint64 `json:"tool_errors"`
	Quarantined     uint64 `json:"quarantined"`
	Timeouts        uint64 `json:"timeouts"`
	UnknownVerdicts uint64 `json:"unknown_verdicts"`
	Epochs          int    `json:"epochs"`
}

// Add accumulates o into t, field by field.
func (t *Totals) Add(o Totals) {
	t.Programs += o.Programs
	t.Findings += o.Findings
	t.Duplicates += o.Duplicates
	t.ToolErrors += o.ToolErrors
	t.Quarantined += o.Quarantined
	t.Timeouts += o.Timeouts
	t.UnknownVerdicts += o.UnknownVerdicts
	t.Epochs += o.Epochs
}

// WriteFileAtomic writes data to path with the crash-safe ritual: write
// to a temp file in the same directory, fsync it, rename over path, fsync
// the directory. A reader (including a resuming daemon) sees either the
// old complete file or the new complete file, never a torn one — rename
// is atomic within a filesystem, which is why the temp file must share
// the target's directory.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// fsync the directory so the rename itself survives a power cut.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteCheckpoint atomically serializes cp to path.
func WriteCheckpoint(path string, cp *Checkpoint) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// LoadCheckpoint reads a checkpoint; (nil, nil) when none exists yet.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}
