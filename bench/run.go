package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// setupProbes is how many set-up-only processes each workload launches
// besides its repetitions; setup_s is the median over all of them.
const setupProbes = 15

// harness launches repetitions and turns them into a report.
type harness struct {
	exe string
	out string
	// slots overrides every workload's slot budget when positive (tests
	// use small budgets; the recorded digests then go unchecked).
	slots   int64
	reps    int
	seconds float64
	trace   int
}

// report is one workload's repetitions.
type report struct {
	w        *workload
	slots    int64
	setups   []*repResult
	untraced []*repResult
	traced   []*repResult
}

// runAll runs every selected workload, prints each one's report and
// checks, and returns the final JSON line. Metric names carry a
// "<workload>/" prefix when more than one workload runs.
func (d *harness) runAll(ctx context.Context, stdout io.Writer, rn runner, seed int64, selected []*workload) (*result, error) {
	recorded, err := recordedDigests()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	missed, err := table2Missed()
	if err != nil {
		return nil, fmt.Errorf("table 2 campaign: %w", err)
	}
	if len(missed) > 0 {
		res.Correct = false
		fmt.Fprintf(stdout, "FAIL table 2 campaign missed %d confirmed bugs: %v\n", len(missed), missed)
	}
	for _, w := range selected {
		r, err := d.run(ctx, w)
		if err != nil {
			return nil, err
		}
		fails := r.failures(recorded)
		r.print(stdout, rn, seed, recorded, fails)
		if len(fails) > 0 {
			res.Correct = false
		}
		for _, x := range r.all() {
			res.Attempted += x.Slots
			res.Failed += x.Failed
		}
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "/"
		}
		for _, m := range r.metrics(d.trace) {
			res.Metrics[prefix+m.name] = metricValue{Value: m.value, Unit: m.unit}
		}
	}
	return res, nil
}

// run measures one workload, with the speed probe sampling throughout.
func (d *harness) run(ctx context.Context, w *workload) (*report, error) {
	probe := startProbe()
	r, err := d.measure(ctx, w)
	probe.Stop()
	if err != nil {
		return nil, err
	}
	for _, x := range append(r.setups, r.all()...) {
		setupEnd := x.launched.Add(seconds(x.SetupS))
		x.setupProbeUS = probe.us(x.launched, setupEnd)
		x.runProbeUS = probe.us(setupEnd, setupEnd.Add(seconds(x.RunS)))
	}
	return r, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// measure launches the workload's set-up-only processes and repetitions.
func (d *harness) measure(ctx context.Context, w *workload) (*report, error) {
	r := &report{w: w, slots: w.slots}
	if d.slots > 0 {
		r.slots = d.slots
	}
	for i := 0; i < setupProbes; i++ {
		x, err := d.rep(ctx, w, repOpts{slots: r.slots, setupOnly: true})
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, x)
	}
	start := time.Now()
	var longest time.Duration
	for {
		traced, ok := d.next(r, time.Since(start)+longest)
		if !ok {
			return r, nil
		}
		first := len(r.untraced)+len(r.traced) == 0
		x, err := d.rep(ctx, w, repOpts{slots: r.slots, traced: traced, explain: first})
		if err != nil {
			return nil, err
		}
		if traced {
			r.traced = append(r.traced, x)
		} else {
			r.untraced = append(r.untraced, x)
		}
		longest = max(longest, seconds(x.SetupS+x.RunS))
	}
}

// next picks the next repetition: whether it is traced, or ok=false when
// the workload is done. With -seconds a repetition starts only if it is
// expected to end within the budget, after at least two have run (one
// of each kind with -trace 1, which alternates them so the tracing
// overhead is measured in the same run).
func (d *harness) next(r *report, projected time.Duration) (traced, ok bool) {
	nu, nt := len(r.untraced), len(r.traced)
	if d.seconds <= 0 {
		if nu < d.reps {
			return false, true
		}
		return true, nt == 0 && d.trace != 0
	}
	enough := nu >= 2 || d.trace == 1 && nu >= 1 && nt >= 1
	if enough && projected.Seconds() > d.seconds {
		return false, false
	}
	return d.trace == 1 && nt < nu, true
}

// rep launches one repetition process and waits for it.
func (d *harness) rep(ctx context.Context, w *workload, o repOpts) (*repResult, error) {
	o.out = d.out
	o.launched = time.Now()
	cmd := exec.CommandContext(ctx, d.exe, o.args(w)...)
	cmd.Env = append(os.Environ(), repEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	steal := startSteal()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repetition: %w", w.name, err)
	}
	x := repResult{launched: o.launched, stealFrac: steal.frac()}
	if err := json.Unmarshal(stdout.Bytes(), &x); err != nil {
		return nil, fmt.Errorf("%s repetition output: %w", w.name, err)
	}
	return &x, nil
}

func (r *report) all() []*repResult {
	return append(append([]*repResult(nil), r.untraced...), r.traced...)
}

// failures lists every failed check: broken identities, a finding set
// that differs between repetitions or from the recorded one, and
// findings no instrumented defect explains.
func (r *report) failures(recorded map[string]recordedDigest) []string {
	var fails []string
	all := r.all()
	for _, x := range all {
		fails = append(fails, x.Errors...)
		if x.Digest != all[0].Digest {
			fails = append(fails, fmt.Sprintf("finding digest %s differs from %s between repetitions", x.Digest, all[0].Digest))
		}
	}
	if rec, ok := recorded[r.w.name]; ok && rec.Slots == r.slots && all[0].Digest != rec.Digest {
		fails = append(fails, fmt.Sprintf("finding digest %s (%d findings), recorded %s (%d findings) in digests.json",
			all[0].Digest, all[0].Findings, rec.Digest, rec.Findings))
	}
	if n := r.unexplained(); len(r.w.defects) > 0 && n != 0 {
		fails = append(fails, fmt.Sprintf("%d findings explained by no instrumented defect", n))
	}
	return fails
}

// unexplained is the count from the repetition that checked it.
func (r *report) unexplained() int {
	for _, x := range r.all() {
		if x.Unexplained >= 0 {
			return x.Unexplained
		}
	}
	return 0
}

// value is one computed metric.
type value struct {
	metric
	value float64
}

// metrics returns the end-to-end metrics (trace 0), the per-layer ones
// (trace 1) or both.
func (r *report) metrics(trace int) []value {
	var out []value
	if trace != 1 {
		e := r.endToEnd()
		for _, m := range endToEnd {
			out = append(out, value{m, e[m.name]})
		}
	}
	if trace != 0 {
		l := r.layers()
		for _, m := range perLayer {
			out = append(out, value{m, l[m.name]})
		}
	}
	return out
}

// rawPPS is a repetition's throughput as measured.
func rawPPS(x *repResult) float64 { return float64(x.Slots) / x.RunS }

// pps is a repetition's throughput at the reference speed, counting only
// the wall clock the host did not steal.
func pps(x *repResult) float64 { return rawPPS(x) / (1 - x.stealFrac) * speedScale(x.runProbeUS) }

// rawCPU is a repetition's CPU time per program as measured.
func rawCPU(x *repResult) float64 { return x.CPUS / float64(x.Slots) }

// samples returns each end-to-end metric's per-repetition values; the
// times are normalized to the reference speed (see speedProbe).
func (r *report) samples() map[string][]float64 {
	s := map[string][]float64{}
	for _, x := range append(r.setups, r.all()...) {
		s["setup_s"] = append(s["setup_s"], x.SetupS/speedScale(x.setupProbeUS))
	}
	for _, x := range r.untraced {
		s["programs_per_s"] = append(s["programs_per_s"], pps(x))
		s["cpu_s_per_program"] = append(s["cpu_s_per_program"], rawCPU(x)/speedScale(x.runProbeUS))
		s["peak_rss_mib"] = append(s["peak_rss_mib"], x.PeakRSSMiB)
	}
	return s
}

func (r *report) endToEnd() map[string]float64 {
	m := map[string]float64{}
	for name, xs := range r.samples() {
		m[name] = median(xs)
	}
	return m
}

// layers is the per-metric median over traced repetitions, plus the
// report.* outcome rows (from untraced repetitions when there are any)
// and the tracing overhead.
func (r *report) layers() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		var xs []float64
		for _, x := range r.traced {
			xs = append(xs, x.Layers[d.name])
		}
		m[d.name] = median(xs)
	}
	base := r.untraced
	if len(base) == 0 {
		base = r.traced
	}
	var find, failed, probe, steal, raw, rawCPUs, rawSetup []float64
	for _, x := range base {
		find = append(find, x.MeanFindS)
		failed = append(failed, float64(x.Failed)/float64(x.Slots))
		probe = append(probe, x.runProbeUS)
		steal = append(steal, x.stealFrac)
		raw = append(raw, rawPPS(x))
		rawCPUs = append(rawCPUs, rawCPU(x))
	}
	for _, x := range append(r.setups, r.all()...) {
		rawSetup = append(rawSetup, x.SetupS)
	}
	m["bench.probe_us"] = median(probe)
	m["bench.steal_frac"] = median(steal)
	m["bench.raw_programs_per_s"] = median(raw)
	m["bench.raw_cpu_s_per_program"] = median(rawCPUs)
	m["bench.raw_setup_s"] = median(rawSetup)
	m["report.unique_findings"] = float64(base[0].Findings)
	m["report.witness_stmts"] = base[0].WitnessStmts
	m["report.mean_time_to_find_s"] = median(find)
	m["report.failed_frac"] = median(failed)
	m["report.unexplained_findings"] = float64(r.unexplained())
	if len(r.traced) > 0 && len(r.untraced) > 0 {
		var t, u []float64
		for _, x := range r.traced {
			t = append(t, pps(x))
		}
		for _, x := range r.untraced {
			u = append(u, pps(x))
		}
		m["bench.trace_overhead_frac"] = 1 - median(t)/median(u)
	}
	return m
}

// print writes the human-readable report of one workload.
func (r *report) print(w io.Writer, rn runner, seed int64, recorded map[string]recordedDigest, fails []string) {
	fmt.Fprintf(w, "workload %s runner=%s seed=%d master_seed=%d slots=[%d,%d) untraced=%d traced=%d\n",
		r.w.name, rn.id(), seed, pinnedSeed, pinnedSlotBase, pinnedSlotBase+r.slots, len(r.untraced), len(r.traced))
	samples := r.samples()
	trace := -1
	if len(r.traced) == 0 {
		trace = 0
	}
	for _, v := range r.metrics(trace) {
		fmt.Fprintf(w, "  %-32s %14.6g %-6s", v.name, v.value, v.unit)
		for _, x := range samples[v.name] {
			fmt.Fprintf(w, " %.4g", x)
		}
		fmt.Fprintln(w)
	}
	check := "not recorded at this slot budget"
	if rec, ok := recorded[r.w.name]; ok && rec.Slots == r.slots {
		check = "checked against digests.json"
	}
	fmt.Fprintf(w, "  findings digest %s (%s)\n", r.all()[0].Digest, check)
	for _, f := range fails {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}
