package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve as a repetition process, the way
// the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if os.Getenv(repEnv) == "1" {
		os.Exit(repMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSpecMatchesTables holds BENCHMARK.json equal to the workloads and
// metric tables the code reports.
func TestSpecMatchesTables(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, s.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []specMetric, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, the code %s %s %s", kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
	var setup, largest float64
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		largest = math.Max(largest, *m.Bound)
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	if setup != largest {
		t.Errorf("setup_s bound %g is not the largest (%g)", setup, largest)
	}
}

// testSlots keep every workload to a few seconds.
var testSlots = map[string]int64{"tv-campaign": 32, "blackbox-tna": 8, "serve-defects": 16, "fleet-gen": 32}

// TestWorkloadsEmitEveryMetric runs each workload once untraced and once
// traced: every metric BENCHMARK.json names must come out finite and
// with its unit, and every check must pass, including equal finding
// digests for the two runs.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			d := &harness{exe: exe, out: t.TempDir(), slots: testSlots[w.name], reps: 1, trace: -1}
			r, err := d.run(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.untraced) != 1 || len(r.traced) != 1 {
				t.Fatalf("ran %d untraced and %d traced repetitions, want 1 and 1", len(r.untraced), len(r.traced))
			}
			for _, f := range r.failures(nil) {
				t.Error(f)
			}
			got := map[string]value{}
			for _, v := range r.metrics(-1) {
				got[v.name] = v
			}
			for _, m := range append(s.EndToEnd, s.PerLayer...) {
				v, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s not emitted", m.Name)
				case v.unit != m.Unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, v.unit, m.Unit)
				case math.IsNaN(v.value) || math.IsInf(v.value, 0):
					t.Errorf("%s = %g", m.Name, v.value)
				}
			}
			for _, m := range s.EndToEnd {
				if got[m.Name].value <= 0 {
					t.Errorf("end-to-end %s = %g, want > 0", m.Name, got[m.Name].value)
				}
			}
		})
	}
}

// TestProbeWindow checks that a window holding enough samples takes
// their median and a shorter one the probeMin samples nearest its middle.
func TestProbeWindow(t *testing.T) {
	p := &speedProbe{}
	t0 := time.Unix(0, 0)
	for i := 0; i < 4*probeMin; i++ {
		p.samples = append(p.samples, probeSample{at: t0.Add(time.Duration(i) * probeEvery), us: float64(i)})
	}
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * probeEvery) }
	if got, want := p.us(at(probeMin), at(3*probeMin-1)), float64(2*probeMin)-0.5; got != want {
		t.Errorf("full window: median %g, want %g", got, want)
	}
	mid := 2 * probeMin
	if got, want := p.us(at(mid), at(mid)), float64(mid); got != want {
		t.Errorf("narrow window: median %g, want %g", got, want)
	}
}

// TestQuartilesMatchPython pins the quartile rule of the spreads in
// README.md: statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}
