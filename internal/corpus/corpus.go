// Package corpus implements the coverage-keyed seed corpus behind the
// engine's feedback loop: programs are admitted only when their coverage
// profile contributes at least one edge the corpus has not seen, admitted
// seeds carry an energy that biases mutation scheduling toward small,
// coverage-rich programs, and eviction is size-biased so the corpus
// converges on compact seeds instead of accreting the largest witnesses.
//
// The corpus follows the repository's isolate-first-then-share
// discipline: it is one of the few cross-worker shared objects, so every
// method is safe for concurrent use, and all tie-breaking is by stable
// keys (seed ID, size, energy) — never by map order or arrival time — so
// a fold applied in a canonical order produces an identical corpus on any
// worker count.
package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"gauntlet/internal/coverage"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/printer"
	"gauntlet/internal/p4/types"
)

// Seed is one admitted corpus entry. The Program is immutable once
// admitted — mutators clone before perturbing — so concurrent readers
// (scheduler, mutation workers) need no further synchronization.
type Seed struct {
	// ID is the admission sequence number (stable tie-break key).
	ID int
	// Program is the admitted program.
	Program *ast.Program
	// Profile is the coverage profile the seed was admitted with.
	Profile *coverage.Profile
	// NewEdges is how many edges were new at admission time.
	NewEdges int
	// Size is the statement count (the eviction bias).
	Size int
	// Energy is the scheduling weight: more new coverage and smaller size
	// mean the seed is drawn more often as a mutation base. It starts at
	// BaseEnergy and grows through BumpEnergy when the seed's mutants
	// keep earning admissions or findings (AFL-style dynamic energy),
	// bounded by maxEnergyMultiple so one hot seed cannot monopolize
	// scheduling.
	Energy float64
	// BaseEnergy is the admission-time energy (the bump unit and cap
	// base).
	BaseEnergy float64
}

// maxEnergyMultiple caps dynamic energy at this multiple of the
// admission energy.
const maxEnergyMultiple = 4.0

// Stats is a point-in-time snapshot of the corpus counters.
type Stats struct {
	// Seeds is the current corpus size (after eviction).
	Seeds int
	// Admitted/Rejected/Evicted count Add outcomes over the whole run:
	// programs that contributed new coverage, programs that did not, and
	// admitted seeds later displaced by the size cap.
	Admitted, Rejected, Evicted uint64
	// Edges is the number of distinct coverage edges ever seen.
	Edges int
	// Fingerprints is the number of distinct coverage fingerprints ever
	// observed across all Add calls (admitted or not) — the campaign's
	// behavioural-diversity metric.
	Fingerprints int
	// Bumps counts BumpEnergy calls that actually raised a live seed's
	// energy (the dynamic-energy feedback observable).
	Bumps uint64
}

// Corpus is a concurrency-safe coverage-keyed seed pool.
type Corpus struct {
	mu       sync.Mutex
	maxSeeds int
	seeds    []*Seed
	byID     map[int]*Seed // live seeds by admission ID (evicted removed)
	total    float64       // sum of seed energies
	edges    map[uint64]struct{}
	fps      map[uint64]struct{}
	astSeen  map[uint64]struct{}
	nextID   int

	admitted, rejected, evicted, bumps uint64
}

// DefaultMaxSeeds caps the corpus when the caller passes 0.
const DefaultMaxSeeds = 256

// New creates an empty corpus holding at most maxSeeds entries
// (0 = DefaultMaxSeeds).
func New(maxSeeds int) *Corpus {
	if maxSeeds <= 0 {
		maxSeeds = DefaultMaxSeeds
	}
	return &Corpus{
		maxSeeds: maxSeeds,
		byID:     make(map[int]*Seed),
		edges:    make(map[uint64]struct{}),
		fps:      make(map[uint64]struct{}),
		astSeen:  make(map[uint64]struct{}),
	}
}

// RecordProgram registers a program's AST-profile fingerprint as
// observed. The engine's collector calls it during the canonical round
// fold, so the observed set advances in deterministic steps.
func (c *Corpus) RecordProgram(astFP uint64) {
	c.mu.Lock()
	c.astSeen[astFP] = struct{}{}
	c.mu.Unlock()
}

// SeenProgram reports whether a program with this AST-profile fingerprint
// has already been observed — the mutation path's novelty pre-filter: a
// mutant that collapses onto an already-tested behavioural shape is
// discarded before it wastes an oracle slot.
func (c *Corpus) SeenProgram(astFP uint64) bool {
	c.mu.Lock()
	_, ok := c.astSeen[astFP]
	c.mu.Unlock()
	return ok
}

// Add offers a program with its coverage profile. It is admitted — and the
// corpus takes ownership of prog, which must not be mutated afterwards —
// only if the profile contributes at least one edge not seen before.
func (c *Corpus) Add(prog *ast.Program, prof *coverage.Profile) bool {
	if prog == nil || prof == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fps[prof.Fingerprint()] = struct{}{}
	fresh := 0
	for _, e := range prof.Edges() {
		if _, seen := c.edges[e]; !seen {
			fresh++
		}
	}
	if fresh == 0 {
		c.rejected++
		return false
	}
	for _, e := range prof.Edges() {
		c.edges[e] = struct{}{}
	}
	size := prof.Stmts()
	if size < 1 {
		size = 1
	}
	energy := float64(fresh) / math.Sqrt(float64(size))
	s := &Seed{
		ID:       c.nextID,
		Program:  prog,
		Profile:  prof,
		NewEdges: fresh,
		Size:     size,
		// Energy rewards coverage yield and penalizes bulk sub-linearly: a
		// seed twice the size needs well under twice the new edges to stay
		// competitive, but a huge witness cannot dominate scheduling.
		Energy:     energy,
		BaseEnergy: energy,
	}
	c.nextID++
	c.admitted++
	c.seeds = append(c.seeds, s)
	c.byID[s.ID] = s
	c.total += s.Energy
	c.evict()
	return true
}

// evict enforces the size cap with a size-biased policy: drop the largest
// seed, breaking ties toward lower energy, then older admission. Evicted
// seeds keep their edges in the global set — coverage once seen stays
// seen, so eviction never re-opens admission for equivalent programs.
// Caller holds the lock.
func (c *Corpus) evict() {
	for len(c.seeds) > c.maxSeeds {
		victim := 0
		for i := 1; i < len(c.seeds); i++ {
			a, b := c.seeds[i], c.seeds[victim]
			switch {
			case a.Size != b.Size:
				if a.Size > b.Size {
					victim = i
				}
			case a.Energy != b.Energy:
				if a.Energy < b.Energy {
					victim = i
				}
			case a.ID < b.ID:
				victim = i
			}
		}
		c.total -= c.seeds[victim].Energy
		delete(c.byID, c.seeds[victim].ID)
		c.seeds = append(c.seeds[:victim], c.seeds[victim+1:]...)
		c.evicted++
	}
}

// BumpEnergy raises seed seedID's scheduling energy by frac of its
// admission energy, capped at maxEnergyMultiple× that admission energy.
// It is a no-op for evicted (or never-admitted) IDs. The engine calls it
// only during the canonical round fold — bumps land in deterministic
// order at deterministic points, so a schedule replayed under the same
// master seed draws the same seeds even though energies move.
func (c *Corpus) BumpEnergy(seedID int, frac float64) {
	if frac <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.byID[seedID]
	if !ok {
		return
	}
	next := s.Energy + frac*s.BaseEnergy
	if cap := maxEnergyMultiple * s.BaseEnergy; next > cap {
		next = cap
	}
	if next > s.Energy {
		c.total += next - s.Energy
		s.Energy = next
		c.bumps++
	}
}

// Select draws a seed with probability proportional to its energy, using
// exactly one draw from r (so a schedule replayed with the same rand
// stream and corpus state picks the same seeds). Returns nil when the
// corpus is empty.
func (c *Corpus) Select(r *rand.Rand) *Seed {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.seeds) == 0 {
		r.Float64() // keep the caller's draw stream aligned
		return nil
	}
	x := r.Float64() * c.total
	for _, s := range c.seeds {
		x -= s.Energy
		if x < 0 {
			return s
		}
	}
	return c.seeds[len(c.seeds)-1] // float drift: fall back to the last
}

// Len returns the current number of seeds.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seeds)
}

// Stats snapshots the corpus counters.
func (c *Corpus) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Seeds:        len(c.seeds),
		Admitted:     c.admitted,
		Rejected:     c.rejected,
		Evicted:      c.evicted,
		Edges:        len(c.edges),
		Fingerprints: len(c.fps),
		Bumps:        c.bumps,
	}
}

// Fingerprints returns the sorted coverage fingerprints of the current
// seeds — the determinism invariant's observable: for a fixed schedule
// seed it must be identical across worker counts.
func (c *Corpus) Fingerprints() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, 0, len(c.seeds))
	for _, s := range c.seeds {
		out = append(out, s.Profile.Fingerprint())
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Save writes every current seed as printed P4 into dir (created if
// needed), one file per seed named by the hash of its printed source,
// and returns how many files were written. Content-addressed names make
// a corpus directory idempotent across load/save cycles: the same
// program always lands in the same file, regardless of whether its
// profile carried pass-trace edges (run-time admission) or AST edges
// only (reload).
func (c *Corpus) Save(dir string) (int, error) {
	c.mu.Lock()
	seeds := append([]*Seed(nil), c.seeds...)
	c.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	for _, s := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed_%016x.p4", printer.Fingerprint(s.Program)))
		if err := os.WriteFile(name, []byte(printer.Print(s.Program)), 0o644); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Load reads every *.p4 file in dir (sorted by name, so admission order —
// and therefore the corpus — is reproducible), parses, type-checks and
// profiles it, and admits it through the normal coverage-keyed gate.
// Unparsable or ill-typed files are skipped, not fatal: a corpus directory
// survives format drift. Returns how many files were admitted.
func (c *Corpus) Load(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".p4") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	n := 0
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return n, err
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			continue
		}
		if types.Check(ast.CloneProgram(prog)) != nil {
			continue
		}
		if c.Add(prog, coverage.OfProgram(prog)) {
			n++
		}
	}
	return n, nil
}
