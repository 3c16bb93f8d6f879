// Package persist is the serve daemon's durability layer: an append-only
// JSONL findings journal plus atomic checkpoints of the corpus, the dedup
// fingerprint sets and the cumulative stats. The split follows the
// write-ahead discipline: findings are journaled (and fsynced) the moment
// they are reported, so the journal is the source of truth for what has
// been reported; checkpoints are periodic consistent snapshots taken at
// the engine's fold boundaries, so a resumed daemon restarts from the
// watermark and reprocesses at most one checkpoint interval — with the
// journal's fingerprints pre-seeding dedup so nothing is reported twice.
package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Journal is an append-only JSONL file, one fsynced record per line. A
// record is written with a single Write call ending in '\n', so a crash
// can truncate only the final line; replay tolerates exactly that, and
// OpenJournal removes it before anything is appended after it.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenJournal opens (creating if needed) the journal at path for
// appending. A final line without a newline, which only a crash
// mid-Append leaves, is truncated away: appended after it, the next
// record would share its line and be lost, and every later one would
// make the torn line interior corruption.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := dropTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: journal %s: %w", path, err)
	}
	return &Journal{f: f, path: path}, nil
}

// dropTornTail truncates f after its last newline and makes the cut
// durable.
func dropTornTail(f *os.File) error {
	info, err := f.Stat()
	if err != nil {
		return err
	}
	// keep ends up as the length through the last newline.
	keep, buf := info.Size(), make([]byte, 4096)
	for keep > 0 {
		n := min(keep, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], keep-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			keep -= n - int64(i) - 1
			break
		}
		keep -= n
	}
	if keep == info.Size() {
		return nil
	}
	if err := f.Truncate(keep); err != nil {
		return err
	}
	return f.Sync()
}

// Append marshals v, writes it as one line and fsyncs before returning:
// once Append returns, the record survives kill -9. Safe for concurrent
// use.
func (j *Journal) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// Replay streams every intact record of the journal at path into fn and
// returns how many were delivered. It is truncation-tolerant in exactly
// the way Append can fail: a final line without a terminating newline, or
// one that no longer parses as JSON, is a record that died mid-write and
// is skipped silently. A malformed line in the *interior* of the file is
// real corruption and is an error — resuming past silently dropped
// findings would re-report them. A missing file replays zero records.
func Replay(path string, fn func(line []byte) error) (int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	n := 0
	var pendingErr error
	for sc.Scan() {
		line := sc.Bytes()
		if pendingErr != nil {
			// The malformed line had intact records after it: interior
			// corruption, not a mid-write crash.
			return n, pendingErr
		}
		if len(line) == 0 {
			continue
		}
		if !json.Valid(line) {
			pendingErr = fmt.Errorf("persist: malformed journal record after %d records in %s", n, path)
			continue
		}
		cp := append([]byte(nil), line...)
		if err := fn(cp); err != nil {
			return n, err
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	// A trailing malformed line is the torn final write: tolerated.
	return n, nil
}
