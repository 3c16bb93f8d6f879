package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// testStream is a fixed, worker-count-independent event stream: one
// duration per event, spanning several buckets including the sub-zero
// clamp and the +Inf overflow.
func testStream(n int) []time.Duration {
	out := make([]time.Duration, n)
	// Deterministic LCG so the stream is the same in every test run
	// without touching a global RNG.
	x := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		switch i % 7 {
		case 0:
			out[i] = -time.Duration(x % 1000) // clamps to bucket 0
		case 1:
			out[i] = 30 * time.Minute // overflow → +Inf
		default:
			out[i] = time.Duration(x % uint64(10*time.Second))
		}
	}
	return out
}

// TestBucketOf pins the bucket function: pure in the observed value,
// with the documented clamp and overflow edges.
func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{time.Duration(1)<<39 - 1, 39},
		{time.Duration(1) << 39, 40},
		{time.Duration(1) << 40, histBuckets + 1}, // ~18min+, overflow
		{30 * time.Minute, histBuckets + 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestHistogramShardInvariance: the merged snapshot of a fixed event
// stream is identical at any shard count and under any partition of the
// stream across concurrent writers — the property that lets per-worker
// sharding change contention without changing what a scrape reports.
func TestHistogramShardInvariance(t *testing.T) {
	stream := testStream(5000)
	want := func() HistSnapshot {
		h := newHistogram(1)
		for _, d := range stream {
			h.Observe(d)
		}
		return h.Snapshot()
	}()
	if want.Count() != uint64(len(stream)) {
		t.Fatalf("reference Count = %d, want %d", want.Count(), len(stream))
	}
	for _, shards := range []int{1, 4, 8, 64} {
		for _, writers := range []int{1, 8} {
			h := newHistogram(shards)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Partition the stream round-robin across writers;
					// each writer sticks to its own shard key.
					for i := w; i < len(stream); i += writers {
						h.ObserveShard(w, stream[i])
					}
				}(w)
			}
			wg.Wait()
			if got := h.Snapshot(); got != want {
				t.Errorf("shards=%d writers=%d: snapshot differs from single-shard reference", shards, writers)
			}
		}
	}
}

// TestMergeAssociative: Merge is associative and commutative, so the
// fold order over shards never matters.
func TestMergeAssociative(t *testing.T) {
	mk := func(seed int) HistSnapshot {
		h := newHistogram(1)
		for _, d := range testStream(100 * (seed + 1)) {
			h.Observe(d + time.Duration(seed))
		}
		return h.Snapshot()
	}
	a, b, c := mk(0), mk(1), mk(2)
	if a.Merge(b) != b.Merge(a) {
		t.Error("Merge is not commutative")
	}
	if a.Merge(b).Merge(c) != a.Merge(b.Merge(c)) {
		t.Error("Merge is not associative")
	}
	var zero HistSnapshot
	if a.Merge(zero) != a {
		t.Error("zero snapshot is not a Merge identity")
	}
}

// TestCounterGauge covers the scalar instruments, including concurrent
// sharded counter writes summing exactly.
func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	g := r.Gauge("test_level", "level", nil)
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	// Registration is idempotent: same (name, labels) → same instrument.
	if r.Counter("test_ops_total", "ops", nil) != c {
		t.Error("re-registration returned a different counter")
	}
	if r.Counter("test_ops_total", "ops", Labels{"k": "v"}) == c {
		t.Error("distinct label set returned the same counter")
	}
}

// TestTypeConflictPanics: one name cannot be both a counter and a gauge.
func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_thing", "", nil)
	defer func() {
		if recover() == nil {
			t.Error("registering test_thing as a gauge did not panic")
		}
	}()
	r.Gauge("test_thing", "", nil)
}

// TestWritePrometheus pins the text exposition: HELP/TYPE headers,
// cumulative occupied-only buckets plus mandatory +Inf, _sum in
// seconds, _count, label escaping, collector series, and byte-identical
// output across repeated renders (deterministic ordering).
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_last_total", "sorts last", nil).Add(7)
	r.Gauge("aa_first", "sorts first", Labels{"q": `a"b\c`}).Set(1)
	h := r.Histogram("mid_seconds", "a histogram", Labels{"stage": "x"})
	h.Observe(1 * time.Nanosecond) // bucket 1, le=(2^1-1)/1e9
	h.Observe(3 * time.Nanosecond) // bucket 2
	h.Observe(3 * time.Nanosecond) // bucket 2
	h.Observe(40 * time.Minute)    // +Inf
	r.Collect(func(e *Emit) {
		e.Counter("collected_total", "from a collector", Labels{"a": "1"}, 42)
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# HELP mid_seconds a histogram\n# TYPE mid_seconds histogram\n",
		`mid_seconds_bucket{stage="x",le="1e-09"} 1` + "\n",
		`mid_seconds_bucket{stage="x",le="3e-09"} 3` + "\n",
		`mid_seconds_bucket{stage="x",le="+Inf"} 4` + "\n",
		`mid_seconds_count{stage="x"} 4` + "\n",
		"zz_last_total 7\n",
		`aa_first{q="a\"b\\c"} 1` + "\n",
		`collected_total{a="1"} 42` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// Only occupied buckets are emitted: bucket 3..40 are empty.
	if strings.Contains(got, `le="7e-09"`) {
		t.Error("empty bucket rendered")
	}
	// _sum is in seconds: 1ns+3ns+3ns+40min.
	wantSum := (float64(1+3+3) + float64(40*time.Minute)) / 1e9
	if !strings.Contains(got, "mid_seconds_sum{stage=\"x\"} "+trimFloat(wantSum)) {
		t.Errorf("sum line wrong in:\n%s", got)
	}
	// Families sort by name.
	if strings.Index(got, "aa_first") > strings.Index(got, "mid_seconds") ||
		strings.Index(got, "mid_seconds") > strings.Index(got, "zz_last_total") {
		t.Error("families not sorted by name")
	}
	// Deterministic: a second render is byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != got {
		t.Error("repeated render differs")
	}
}

func trimFloat(v float64) string {
	return formatValue(v)
}

// TestConcurrentObserveGather hammers every instrument kind while
// scraping — meaningful under -race; also checks a mid-write scrape
// never reads a torn histogram (count and bucket sum agree).
func TestConcurrentObserveGather(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "", nil)
	g := r.Gauge("hot_level", "", nil)
	h := r.Histogram("hot_seconds", "", nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				h.ObserveShard(w, time.Duration(i%1000)*time.Microsecond)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		snap := h.Snapshot()
		var sum uint64
		for _, n := range snap.Counts {
			sum += n
		}
		if sum != snap.Count() {
			t.Fatalf("torn snapshot: bucket sum %d != Count %d", sum, snap.Count())
		}
	}
	close(stop)
	wg.Wait()
}
