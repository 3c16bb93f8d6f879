package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A run gets a few cores of a shared host, and their speed moves with
// what the other tenants do: the same pinned repetition takes 1.4–1.8×
// as long at one moment as at another, within minutes, mostly without
// steal time to show for it, and the host exposes no instruction
// counters. A speedProbe tracks that speed while the repetitions run:
// every probeEvery the parent process times a fixed, branchy lookup loop
// over a table the size of a core's L2 cache. Of the loops tried (pure
// integer arithmetic, L1 and L2 stores, DRAM pointer chasing, map
// lookups, tree walks, allocation), this one tracked the repetitions'
// own times best. The time metrics are scaled to the reference speed
// refProbeUS by speedScale.
type speedProbe struct {
	stop, done chan struct{}
	mu         sync.Mutex
	samples    []probeSample
}

type probeSample struct {
	at time.Time
	us float64
}

const (
	// probeEvery spaces the samples. One sample takes ~0.13 ms, so the
	// probe uses well under 1% of one core.
	probeEvery = 20 * time.Millisecond
	// refProbeUS is the reference speed: a normalized time is what the
	// raw one would be on a machine whose probe takes this many µs (a
	// round figure in the range the runner README.md records shows).
	refProbeUS = 125.0
	// speedExponent is how much more the campaigns slow down than the
	// probe: across two sets of 40 runs, regressing a run's log time on
	// its log probe time gave slopes of 1.1 to 2.1 per workload (the
	// campaigns' heaps outgrow the probe's table), so a probe 10% slower
	// than the reference means a campaign ~15% slower.
	speedExponent = 1.5
	// probeMin is the fewest samples one estimate uses; shorter windows
	// are widened around their middle.
	probeMin = 25
	// probeLookups and probeTable size one sample's work.
	probeLookups = 500
	probeTable   = 1 << 16
)

var (
	probeKeys = func() []int {
		t := make([]int, probeTable)
		for i := range t {
			t[i] = 3 * i
		}
		return t
	}()
	probeSink int
)

func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *speedProbe) loop() {
	defer close(p.done)
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			start := time.Now()
			probeWork()
			us := float64(time.Since(start).Nanoseconds()) / 1e3
			p.mu.Lock()
			p.samples = append(p.samples, probeSample{start, us})
			p.mu.Unlock()
		}
	}
}

// probeWork is one sample's fixed work: probeLookups binary searches for
// pseudo-random keys.
func probeWork() {
	x := uint64(88172645463325252)
	sum := 0
	for i := 0; i < probeLookups; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := int(x % (3 * probeTable))
		sum += sort.Search(probeTable, func(j int) bool { return probeKeys[j] >= k })
	}
	probeSink += sum
}

// Stop ends the sampling and waits for it.
func (p *speedProbe) Stop() {
	close(p.stop)
	<-p.done
}

// cpuTimes reads the machine-wide steal and total ticks from /proc/stat;
// ok is false where the file is missing or unreadable.
func cpuTimes() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the share of the machine's CPU time the host took
// away (steal) over an interval: the vCPUs were not running, so the
// program lost that share of the wall clock. It reads 0 where the kernel
// does not report steal.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTimes()
	return stealMeter{s, t, ok}
}

func (m stealMeter) frac() float64 {
	s, t, ok := cpuTimes()
	if !ok || !m.ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// us is the median sample over [from, to], or over the probeMin samples
// nearest its middle when fewer fall inside.
func (p *speedProbe) us(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var in []float64
	for _, s := range p.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			in = append(in, s.us)
		}
	}
	if len(in) < probeMin && len(in) < len(p.samples) {
		mid := from.Add(to.Sub(from) / 2)
		near := append([]probeSample(nil), p.samples...)
		dist := func(s probeSample) time.Duration { return max(s.at.Sub(mid), mid.Sub(s.at)) }
		sort.Slice(near, func(i, j int) bool { return dist(near[i]) < dist(near[j]) })
		in = in[:0]
		for _, s := range near[:min(probeMin, len(near))] {
			in = append(in, s.us)
		}
	}
	return median(in)
}

// speedScale is how many times slower than the reference the machine
// ran while the probe took probeUS; dividing a time by it normalizes the
// time.
func speedScale(probeUS float64) float64 {
	return math.Pow(probeUS/refProbeUS, speedExponent)
}
