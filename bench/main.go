// Command bench runs Gauntlet's pinned campaign workloads, checks what
// they find, and prints every end-to-end metric and the per-layer ledger
// by name with its unit. Build and run it from the repository root with
//
//	bash bench/run.sh [-workload W|all] [-seed S] [-reps N | -seconds T] [-trace 0|1] [-out DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones (medians of untraced repetitions); with -trace 1
// they are the per-layer ones (medians of traced repetitions); without
// -trace both are printed. The exit status is nonzero when any check
// fails. bench -compare A B summarises saved outputs; see ab.sh.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	if os.Getenv(repEnv) == "1" {
		os.Exit(repMain(os.Args[1:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// metricValue is one entry of the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "run seed, recorded with the output; the workloads' programs are pinned (see README.md)")
	d := &harness{}
	fs.IntVar(&d.reps, "reps", 3, "untraced repetitions per workload when -seconds is 0")
	fs.Float64Var(&d.seconds, "seconds", 0, "measure each workload for about this many seconds instead of -reps")
	fs.IntVar(&d.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; unset: both")
	fs.StringVar(&d.out, "out", filepath.Join("bench", "out"), "directory for span files and the serve workload's state")
	compare := fs.Bool("compare", false, "compare two directories of saved outputs: bench -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two directories")
			return 2
		}
		if err := compareDirs(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	selected := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	if d.trace < -1 || d.trace > 1 || d.reps < 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1, -reps at least 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	d.exe = exe
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rn := currentRunner()
	fmt.Fprintln(stdout, rn)
	res, err := d.runAll(ctx, stdout, rn, *seed, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
