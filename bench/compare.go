package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// saved is one saved benchmark output: its runner id and final JSON line.
type saved struct {
	runner string
	res    result
}

func loadSaved(path string) (saved, error) {
	var s saved
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, l := range lines {
		if id, ok := strings.CutPrefix(l, "runner id="); ok {
			s.runner, _, _ = strings.Cut(id, " ")
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.res); err != nil {
		return s, fmt.Errorf("%s: last line: %w", path, err)
	}
	return s, nil
}

// loadBounds reads the end-to-end regression bounds from BENCHMARK.json
// in the working directory.
func loadBounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// compareDirs summarises paired runs saved as <workload>.<pair>.out in
// directories a (the reference) and b (the change): each side's median
// and quartiles per metric, how many pairs b won, and a verdict.
func compareDirs(w io.Writer, a, b string) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(a, "*.out"))
	if err != nil {
		return err
	}
	pairs := map[string][][2]saved{}
	for _, fa := range files {
		base := filepath.Base(fa)
		wl := base[:strings.Index(base, ".")]
		sa, err := loadSaved(fa)
		if err != nil {
			return err
		}
		sb, err := loadSaved(filepath.Join(b, base))
		if err != nil {
			return err
		}
		pairs[wl] = append(pairs[wl], [2]saved{sa, sb})
	}
	names := make([]string, 0, len(pairs))
	for wl := range pairs {
		names = append(names, wl)
	}
	sort.Strings(names)
	for _, wl := range names {
		ps := pairs[wl]
		runners := map[string]bool{}
		for _, p := range ps {
			runners[p[0].runner], runners[p[1].runner] = true, true
		}
		fmt.Fprintf(w, "%s: %d pairs\n", wl, len(ps))
		if len(runners) > 1 {
			fmt.Fprintf(w, "  RUNNERS DIFFER %v: these numbers are not comparable\n", keys(runners))
		}
		for _, p := range ps {
			if !p[0].res.Correct || !p[1].res.Correct {
				fmt.Fprintln(w, "  FAIL a run's correctness checks failed; see its output")
				break
			}
		}
		fmt.Fprintf(w, "  %-30s %-30s %-30s %8s %6s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A-1", "B wins", "verdict")
		for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
			var av, bv []float64
			wins := 0
			for _, p := range ps {
				x, okA := p[0].res.Metrics[m.name]
				y, okB := p[1].res.Metrics[m.name]
				if !okA || !okB {
					continue
				}
				av, bv = append(av, x.Value), append(bv, y.Value)
				if better(m, y.Value, x.Value) {
					wins++
				}
			}
			if len(av) == 0 {
				continue
			}
			ma, mb := median(av), median(bv)
			a1, a3 := quartiles(av)
			b1, b3 := quartiles(bv)
			delta := "n/a"
			if ma != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(mb/ma-1))
			}
			fmt.Fprintf(w, "  %-30s %-30s %-30s %8s %3d/%-2d  %s\n", m.name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", ma, a1, a3), fmt.Sprintf("%.4g [%.4g, %.4g]", mb, b1, b3),
				delta, wins, len(av), verdict(m, bounds[m.name], av, bv, wins))
		}
	}
	return nil
}

// verdict applies the gain rule (at least ten pairs, B wins nine tenths
// of them and the medians differ by more than A's quartile spread) and,
// for metrics with a bound, the regression rule.
func verdict(m metric, bound float64, av, bv []float64, wins int) string {
	ma, mb := median(av), median(bv)
	a1, a3 := quartiles(av)
	switch {
	case len(av) >= 10 && 10*wins >= 9*len(av) && math.Abs(mb-ma) > a3-a1:
		return "gain"
	case bound == 0:
		return ""
	case (a3-a1)/ma > bound:
		return "unresolved (A's spread exceeds the bound)"
	case m.better == "higher" && mb < ma*(1-bound), m.better == "lower" && mb > ma*(1+bound):
		return "REGRESSION"
	}
	return "within bound"
}

// better reports whether x is better than y for metric m.
func better(m metric, x, y float64) bool {
	if m.better == "lower" {
		return x < y
	}
	return x > y
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1)-4*j) / 4
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
