package main

import (
	"errors"
	"strings"
	"testing"
)

type failAfter struct {
	n   int
	buf strings.Builder
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("sink full")
	}
	f.n--
	return f.buf.Write(p)
}

// TestJSONLWriterDropAccounting: a sick sink loses the record but
// reports it — onDrop fires with the record kind, the writer never
// panics, and a nil writer is a silent no-op.
func TestJSONLWriterDropAccounting(t *testing.T) {
	var drops []string
	sink := &failAfter{n: 2}
	jw := newJSONLWriter(sink, func(what string, err error) {
		if err == nil {
			t.Error("onDrop called with nil error")
		}
		drops = append(drops, what)
	})
	jw.write(map[string]int{"a": 1}, "stats")
	jw.write(map[string]int{"b": 2}, "finding")
	jw.write(map[string]int{"c": 3}, "stats") // write error
	jw.write(func() {}, "finding")            // marshal error
	if got := sink.buf.String(); strings.Count(got, "\n") != 2 {
		t.Errorf("sink holds %q, want exactly 2 lines", got)
	}
	if len(drops) != 2 || drops[0] != "stats" || drops[1] != "finding" {
		t.Errorf("drops = %v, want [stats finding]", drops)
	}

	var nilJW *jsonlWriter
	nilJW.write(map[string]int{"x": 1}, "stats") // must not panic
	newJSONLWriter(nil, nil).write(map[string]int{"x": 1}, "stats")
}
