package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"gauntlet/internal/core"
)

// jsonlWriter serializes JSON-line records from concurrent producers
// (the engine's report goroutine, the stats ticker, the SIGHUP handler)
// under one lock. A failed marshal or write invokes onDrop and the
// record is lost — the process never dies over a sick sink, but the
// drop is counted, not just logged.
type jsonlWriter struct {
	mu     sync.Mutex
	w      io.Writer
	onDrop func(what string, err error)
}

func newJSONLWriter(w io.Writer, onDrop func(what string, err error)) *jsonlWriter {
	return &jsonlWriter{w: w, onDrop: onDrop}
}

// write appends v as one JSON line. A nil writer (no -jsonl sink) is a
// no-op; what names the record kind for the drop report.
func (jw *jsonlWriter) write(v any, what string) {
	if jw == nil || jw.w == nil {
		return
	}
	line, err := json.Marshal(v)
	if err == nil {
		jw.mu.Lock()
		_, err = fmt.Fprintf(jw.w, "%s\n", line)
		jw.mu.Unlock()
	}
	if err != nil && jw.onDrop != nil {
		jw.onDrop(what, err)
	}
}

// openJSONL opens the -jsonl sink ("" = none, "-" = stdout, otherwise a
// file appended to) and returns its writer and the function that closes
// it. A lost record is logged, and also counted by dropped when set.
func openJSONL(path string, dropped func()) (*jsonlWriter, func()) {
	var sink io.Writer
	closeSink := func() {}
	switch path {
	case "":
	case "-":
		sink = os.Stdout
	default:
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			die(1, "%v", err)
		}
		sink, closeSink = f, func() { f.Close() }
	}
	return newJSONLWriter(sink, func(what string, err error) {
		if dropped != nil {
			dropped()
		}
		fmt.Fprintf(os.Stderr, "p4gauntlet: jsonl %s record lost: %v\n", what, err)
	}), closeSink
}

// reportFinding prints a finding's human line to human and appends its
// JSONL record.
func reportFinding(human io.Writer, jw *jsonlWriter, f core.Finding) {
	fmt.Fprintf(human, "seed %d: %s", f.Seed, f.Kind)
	if f.Pass != "" {
		fmt.Fprintf(human, " in %s", f.Pass)
	}
	if f.Origin == "mutate" {
		fmt.Fprintf(human, " [mutant]")
	}
	if f.SizeBefore != f.SizeAfter {
		fmt.Fprintf(human, " (witness reduced %d -> %d stmts)", f.SizeBefore, f.SizeAfter)
	}
	fmt.Fprintf(human, ": %s\n", f.Detail)
	jw.write(f, fmt.Sprintf("finding (seed %d)", f.Seed))
}
