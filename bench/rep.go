package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// repEnv marks a process as one repetition. The parent re-executes its
// own binary with it set, so every repetition starts cold and its peak
// RSS and CPU time are its own.
const repEnv = "GAUNTLET_BENCH_REP"

// repResult is what one repetition reports to the parent, as one JSON
// line on standard output.
type repResult struct {
	Slots  int64 `json:"slots"`
	Traced bool  `json:"traced"`
	// SetupS runs from the parent launching the process to Run: process
	// start, package initialisation and the workload's own set-up.
	SetupS     float64 `json:"setup_s"`
	RunS       float64 `json:"run_s"`
	CPUS       float64 `json:"cpu_s"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	// Digest identifies the finding set: fingerprints, kinds, passes and
	// witness bytes.
	Digest       string  `json:"digest"`
	Findings     int     `json:"findings"`
	WitnessStmts float64 `json:"witness_stmts"`
	MeanFindS    float64 `json:"mean_time_to_find_s"`
	Failed       uint64  `json:"failed"`
	// Unexplained counts findings no instrumented defect explains; -1
	// when the repetition was not asked to check.
	Unexplained int `json:"unexplained"`
	// Errors lists broken Stats identities and persistence failures.
	Errors []string           `json:"errors,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`

	// The parent fills in when it launched the process, the share of
	// CPU time the host stole while it ran, and the speed probe's median
	// over the set-up and over the run, in µs.
	launched                 time.Time
	stealFrac                float64
	setupProbeUS, runProbeUS float64
}

// repOpts are the parent's instructions to one repetition.
type repOpts struct {
	slots     int64
	traced    bool
	setupOnly bool
	explain   bool
	// out holds the repetition's persistent state and span files.
	out string
	// launched is when the parent started the process.
	launched time.Time
}

func (o repOpts) args(w *workload) []string {
	return []string{
		"-workload", w.name,
		"-slots", fmt.Sprint(o.slots),
		"-out", o.out,
		"-launched", fmt.Sprint(o.launched.UnixNano()),
		fmt.Sprintf("-traced=%t", o.traced),
		fmt.Sprintf("-setup-only=%t", o.setupOnly),
		fmt.Sprintf("-explain=%t", o.explain),
	}
}

// repMain is the entry point of a repetition process.
func repMain(args []string) int {
	fs := flag.NewFlagSet("rep", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	var o repOpts
	var launched int64
	fs.Int64Var(&o.slots, "slots", 0, "")
	fs.StringVar(&o.out, "out", "", "")
	fs.Int64Var(&launched, "launched", 0, "")
	fs.BoolVar(&o.traced, "traced", false, "")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "")
	fs.BoolVar(&o.explain, "explain", false, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.launched = time.Unix(0, launched)
	w := workloadByName(*name)
	if w == nil || o.slots <= 0 {
		fmt.Fprintf(os.Stderr, "bench: bad repetition arguments %q\n", args)
		return 2
	}
	res, err := runRep(context.Background(), w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runRep sets the workload up, runs it once and measures it.
func runRep(ctx context.Context, w *workload, o repOpts) (*repResult, error) {
	p := params{slots: o.slots, dir: filepath.Join(o.out, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))}
	if o.traced {
		p.tr = newTracer()
	}
	c, err := w.start(p)
	if err != nil {
		return nil, err
	}
	res := &repResult{Slots: o.slots, Traced: o.traced, SetupS: time.Since(o.launched).Seconds(), Unexplained: -1}
	if !o.setupOnly {
		err = measure(ctx, w, o, p, c, res)
	}
	if cerr := c.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// measure runs the set-up campaign and fills res.
func measure(ctx context.Context, w *workload, o repOpts, p params, c *campaign, res *repResult) error {
	var before runtime.MemStats
	if o.traced {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	out, err := c.run(ctx)
	wall := time.Since(start)
	p.tr.end(start, "bench", "run", noSlot)
	if err != nil {
		return err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	res.RunS = wall.Seconds()
	res.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	res.PeakRSSMiB = float64(ru.Maxrss) * 1024 / mib // Maxrss is in KiB on Linux

	res.Digest = digest(out.findings)
	res.Findings = len(out.findings)
	var stmts int
	for _, f := range out.findings {
		stmts += f.SizeAfter
	}
	var found time.Duration
	for _, d := range out.foundAfter {
		found += d
	}
	if n := len(out.findings); n > 0 {
		res.WitnessStmts = float64(stmts) / float64(n)
		res.MeanFindS = found.Seconds() / float64(n)
	}
	res.Failed = out.failed()
	res.Errors = identities(w, out, o.slots)

	if o.traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		res.Layers = ledger(out, p.tr, wall, o.slots, memUse{
			allocBytes: after.TotalAlloc - before.TotalAlloc,
			gcCPUFrac:  after.GCCPUFraction,
		})
		if err := os.MkdirAll(filepath.Join(o.out, "traces"), 0o755); err != nil {
			return err
		}
		if err := p.tr.write(filepath.Join(o.out, "traces", w.name+".jsonl")); err != nil {
			return err
		}
	}
	if o.explain {
		res.Unexplained, err = w.unexplained(ctx, out.findings)
	}
	return err
}
