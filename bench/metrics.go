package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"gauntlet/internal/obs"
	"gauntlet/internal/smt"
	"gauntlet/internal/smt/solver"
	"gauntlet/internal/validate"
)

// metric is one reported number. The tables below are what
// BENCHMARK.json declares; the tests hold the two equal.
type metric struct {
	name, unit, better string
}

// endToEnd are what a user of the campaign sees, measured untraced, each
// the median over a run's repetitions. The times are normalized to the
// reference machine speed; the bench.raw_* rows of the ledger are the
// same numbers as measured.
var endToEnd = []metric{
	{"programs_per_s", "1/s", "higher"},
	{"cpu_s_per_program", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is the ledger, named by module. The core.*, validate.*,
// solver.*, mutate.*, corpus.*, coverage.*, generator.* and compiler.*
// rows come from engine internals the fleet executor does not expose, so
// they read 0 on fleet-gen.
var perLayer = []metric{
	{"core.generate_s", "s", "lower"},
	{"core.compile_s", "s", "lower"},
	{"core.oracle_s", "s", "lower"},
	{"core.dedup_s", "s", "lower"},
	{"core.reduce_s", "s", "lower"},
	{"core.oracle_p50_ms", "ms", "lower"},
	{"core.oracle_p99_ms", "ms", "lower"},
	{"core.oracle_untiered_s", "s", "lower"},
	{"core.busy_frac", "ratio", "higher"},
	{"core.epochs", "count", "lower"},
	{"generator.calls", "count", "lower"},
	{"generator.s", "s", "lower"},
	{"compiler.pass_calls", "count", "lower"},
	{"compiler.passes_s", "s", "lower"},
	{"compiler.snapshot_s", "s", "lower"},
	{"validate.simplified.n", "count", "higher"},
	{"validate.simplified.s", "s", "lower"},
	{"validate.cache-hit.n", "count", "higher"},
	{"validate.cache-hit.s", "s", "lower"},
	{"validate.hint-replay.n", "count", "higher"},
	{"validate.hint-replay.s", "s", "lower"},
	{"validate.concolic-falsified.n", "count", "higher"},
	{"validate.concolic-falsified.s", "s", "lower"},
	{"validate.cdcl.n", "count", "lower"},
	{"validate.cdcl.s", "s", "lower"},
	{"validate.verdict_hit_ratio", "ratio", "higher"},
	{"validate.falsify_ratio", "ratio", "higher"},
	{"solver.gate_reuse_ratio", "ratio", "higher"},
	{"reduce.predicate_calls", "count", "lower"},
	{"reduce.serial_calls", "count", "lower"},
	{"reduce.wasted_ratio", "ratio", "lower"},
	{"mutate.mutated", "count", "higher"},
	{"mutate.rejected", "count", "lower"},
	{"mutate.yield_ratio", "ratio", "higher"},
	{"corpus.admission_ratio", "ratio", "higher"},
	{"coverage.fingerprints", "count", "higher"},
	{"persist.appends", "count", "lower"},
	{"persist.append_s", "s", "lower"},
	{"persist.checkpoints", "count", "lower"},
	{"persist.checkpoint_s", "s", "lower"},
	{"fleet.leases", "count", "lower"},
	{"fleet.reissued", "count", "lower"},
	{"fleet.lease_mean_s", "s", "lower"},
	{"smt.interner_mib", "MiB", "lower"},
	{"runtime.alloc_mib_per_program", "MiB", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"report.unique_findings", "count", "higher"},
	{"report.witness_stmts", "stmts", "lower"},
	{"report.mean_time_to_find_s", "s", "lower"},
	{"report.failed_frac", "ratio", "lower"},
	{"report.unexplained_findings", "count", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.probe_us", "us", "lower"},
	{"bench.steal_frac", "ratio", "lower"},
	{"bench.raw_programs_per_s", "1/s", "higher"},
	{"bench.raw_cpu_s_per_program", "s", "lower"},
	{"bench.raw_setup_s", "s", "lower"},
}

const mib = 1 << 20

var stageNames = []string{"generate", "compile", "oracle", "dedup", "reduce"}

var tierNames = []string{
	validate.TierSimplified, validate.TierCacheHit, validate.TierHintReplay,
	validate.TierConcolic, validate.TierCDCL,
}

// memUse is the Go heap activity over one traced run.
type memUse struct {
	allocBytes uint64
	gcCPUFrac  float64
}

// ledger computes the per-layer metrics of one traced run from the
// registry the benchmark supplied, the engine's or coordinator's final
// status and the benchmark's own spans. The report.* and bench.* rows
// are filled in by the parent from every repetition.
func ledger(o *outcome, tr *tracer, wall time.Duration, slots int64, mem memUse) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	ns := func(v uint64) float64 { return float64(v) / 1e9 }

	if o.reg != nil && o.stats != nil {
		var busy, tiered uint64
		for _, st := range stageNames {
			h := o.reg.Histogram("gauntlet_stage_duration_seconds", "", obs.Labels{"stage": st}).Snapshot()
			m["core."+st+"_s"] = ns(h.SumNs)
			busy += h.SumNs
			if st == "oracle" {
				m["core.oracle_p50_ms"] = quantile(h, 0.50).Seconds() * 1e3
				m["core.oracle_p99_ms"] = quantile(h, 0.99).Seconds() * 1e3
			}
		}
		for _, t := range tierNames {
			h := o.reg.Histogram("gauntlet_equivalence_query_duration_seconds", "", obs.Labels{"tier": t}).Snapshot()
			m["validate."+t+".n"] = float64(h.Count())
			m["validate."+t+".s"] = ns(h.SumNs)
			tiered += h.SumNs
		}
		// Reduction predicates pose queries too, so on reduce-heavy runs
		// the tiers can exceed the oracle stage; clamp the residue at 0.
		m["core.oracle_untiered_s"] = math.Max(0, m["core.oracle_s"]-ns(tiered))
		m["core.busy_frac"] = ns(busy) / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	}
	if s := o.stats; s != nil {
		m["core.epochs"] = float64(o.epochs)
		m["validate.verdict_hit_ratio"] = ratio(s.VerdictHits, s.VerdictHits+s.VerdictMisses)
		falsified := m["validate.concolic-falsified.n"]
		if solved := falsified + m["validate.cdcl.n"]; solved > 0 {
			m["validate.falsify_ratio"] = falsified / solved
		}
		m["reduce.predicate_calls"] = float64(s.ReducePredicateCalls)
		m["reduce.serial_calls"] = float64(s.ReduceSerialCalls)
		m["reduce.wasted_ratio"] = ratio(s.ReduceProbesWasted, s.ReduceProbesLaunched)
		rejected := s.MutateInvalid + s.MutateStale
		m["mutate.mutated"] = float64(s.Mutated)
		m["mutate.rejected"] = float64(rejected)
		m["mutate.yield_ratio"] = ratio(s.Mutated, s.Mutated+rejected)
		m["corpus.admission_ratio"] = ratio(s.Corpus.Admitted, s.Corpus.Admitted+s.Corpus.Rejected)
		m["coverage.fingerprints"] = float64(s.Corpus.Fingerprints)
		m["smt.interner_mib"] = float64(s.Interner.BytesEstimate) / mib
	}
	if f := o.fleet; f != nil {
		m["fleet.leases"] = float64(f.LeasesTotal)
		m["fleet.reissued"] = float64(f.LeasesReissued)
		// The mean, not a bucket-interpolated median: a run has only a
		// handful of leases, all within one or two log2 buckets.
		var lease obs.HistSnapshot
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			h := o.reg.Histogram("gauntlet_fleet_lease_latency_seconds", "", obs.Labels{"worker": workerName(i)})
			lease = lease.Merge(h.Snapshot())
		}
		if n := lease.Count(); n > 0 {
			m["fleet.lease_mean_s"] = ns(lease.SumNs) / float64(n)
		}
		// Fleet workers intern into the process-wide context.
		m["smt.interner_mib"] = float64(smt.InternerStats().BytesEstimate) / mib
	}
	built, reused := solver.GateStats()
	m["solver.gate_reuse_ratio"] = ratio(reused, built+reused)

	n, d := tr.sum("generator", "")
	m["generator.calls"], m["generator.s"] = float64(n), d.Seconds()
	n, d = tr.sum("compiler", "")
	m["compiler.pass_calls"], m["compiler.passes_s"] = float64(n), d.Seconds()
	if o.stats != nil {
		// Passes also run inside reduction predicates, so this residue is
		// the per-snapshot re-parse/re-check/print cost only where
		// reduce_s ≈ 0.
		m["compiler.snapshot_s"] = math.Max(0, m["core.compile_s"]-d.Seconds())
	}
	n, d = tr.sum("persist", "append")
	m["persist.appends"], m["persist.append_s"] = float64(n), d.Seconds()
	n, d = tr.sum("persist", "checkpoint")
	m["persist.checkpoints"], m["persist.checkpoint_s"] = float64(n), d.Seconds()

	m["runtime.alloc_mib_per_program"] = float64(mem.allocBytes) / mib / float64(slots)
	m["runtime.gc_cpu_frac"] = mem.gcCPUFrac
	return m
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// quantile estimates the q-quantile of a log2-bucketed histogram (bucket
// i holds [2^(i-1), 2^i) ns) by geometric interpolation inside the bucket
// that holds it.
func quantile(h obs.HistSnapshot, q float64) time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			if i == 0 {
				return 0
			}
			lo, hi := math.Ldexp(1, i-1), math.Ldexp(1, i)
			return time.Duration(lo * math.Pow(hi/lo, (rank-cum)/float64(c)))
		}
		cum += float64(c)
	}
	return 0
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
