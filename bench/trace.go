package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"gauntlet/internal/compiler"
	"gauntlet/internal/p4/ast"
)

// noSlot marks a span whose schedule slot is not known at the boundary
// (a compiler pass sees a program, not the slot it came from).
const noSlot = int64(-1 << 63)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers around the public entry points.
type span struct {
	layer, name    string
	slot           int64
	startNs, endNs int64
}

// tracer keeps spans in memory for the length of one repetition. A nil
// *tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin returns the start time of a span (zero when untraced).
func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records the span that started at start.
func (t *tracer) end(start time.Time, layer, name string, slot int64) {
	if t == nil {
		return
	}
	s := span{
		layer: layer, name: name, slot: slot,
		startNs: start.Sub(t.t0).Nanoseconds(),
		endNs:   time.Since(t.t0).Nanoseconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// sum totals the count and duration of one layer's spans, or of one
// name's within it when name is not empty.
func (t *tracer) sum(layer, name string) (n int, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.layer == layer && (name == "" || s.name == name) {
			n++
			d += time.Duration(s.endNs - s.startNs)
		}
	}
	return n, d
}

// wrapGenerate times every call of the engine's program generator.
func (t *tracer) wrapGenerate(gen func(int64) *ast.Program) func(int64) *ast.Program {
	return func(seed int64) *ast.Program {
		defer t.end(time.Now(), "generator", "generate", seed)
		return gen(seed)
	}
}

// tracedPass times one compiler pass under its own name, so defect
// instrumentation (which matches passes by name) is unaffected.
type tracedPass struct {
	inner compiler.Pass
	t     *tracer
}

func (p tracedPass) Name() string { return p.inner.Name() }

func (p tracedPass) Run(prog *ast.Program) (*ast.Program, error) {
	// Deferred so that a crashing pass, whose panic the compiler
	// recovers, still closes its span.
	defer p.t.end(time.Now(), "compiler", p.inner.Name(), noSlot)
	return p.inner.Run(prog)
}

func (t *tracer) wrapPasses(passes []compiler.Pass) []compiler.Pass {
	out := make([]compiler.Pass, len(passes))
	for i, p := range passes {
		out[i] = tracedPass{inner: p, t: t}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type rec struct {
		Layer   string `json:"layer"`
		Name    string `json:"name"`
		Slot    *int64 `json:"slot,omitempty"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range spans {
		r := rec{Layer: s.layer, Name: s.name, StartNs: s.startNs, EndNs: s.endNs}
		if s.slot != noSlot {
			slot := s.slot
			r.Slot = &slot
		}
		if err := enc.Encode(r); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
