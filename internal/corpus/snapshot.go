package corpus

import (
	"fmt"
	"sort"

	"gauntlet/internal/coverage"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/printer"
)

// SeedSnapshot is one seed's durable form: the printed program plus every
// admission-time metric scheduling depends on. The profile is saved as
// its raw edge set, not re-derived from the source on load — a run-time
// profile carries pass-trace (or crash) edges an AST re-profile cannot
// reproduce, and energy reflects dynamic bumps, so lossy restoration
// would silently change the resumed schedule.
type SeedSnapshot struct {
	ID         int      `json:"id"`
	Source     string   `json:"source"`
	Edges      []uint64 `json:"edges"`
	Stmts      int      `json:"stmts"`
	NewEdges   int      `json:"new_edges"`
	Size       int      `json:"size"`
	Energy     float64  `json:"energy"`
	BaseEnergy float64  `json:"base_energy"`
}

// Snapshot is the corpus's complete durable state. Unlike Save/Load —
// which round-trips only the printed seed programs and replays them
// through the admission gate — a Snapshot preserves the exact feedback
// state: the global edge set (including edges owned by since-evicted
// seeds), the observed coverage- and AST-fingerprint sets (the dedup and
// novelty filters), per-seed energies, admission IDs, and the lifetime
// counters. FromSnapshot therefore yields a corpus whose future behaviour
// is indistinguishable from the one snapshotted — the property resume
// correctness rests on.
type Snapshot struct {
	MaxSeeds int            `json:"max_seeds"`
	NextID   int            `json:"next_id"`
	Seeds    []SeedSnapshot `json:"seeds"`
	// Edges is the global coverage-edge set (admission novelty filter).
	Edges []uint64 `json:"edges"`
	// Fingerprints is every coverage fingerprint ever observed.
	Fingerprints []uint64 `json:"fingerprints"`
	// ASTSeen is the observed AST-profile fingerprint set (the mutation
	// staleness pre-filter).
	ASTSeen []uint64 `json:"ast_seen"`
	// Lifetime counters.
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
	Evicted  uint64 `json:"evicted"`
	Bumps    uint64 `json:"bumps"`
}

// sortedKeys flattens a set to a sorted slice (deterministic
// serialization: the same corpus always snapshots to the same bytes).
func sortedKeys(m map[uint64]struct{}) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshot captures the corpus's full state for a checkpoint. Safe for
// concurrent use, though the engine calls it only from the collector at a
// fold boundary, where the state is round-aligned.
func (c *Corpus) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Snapshot{
		MaxSeeds:     c.maxSeeds,
		NextID:       c.nextID,
		Edges:        sortedKeys(c.edges),
		Fingerprints: sortedKeys(c.fps),
		ASTSeen:      sortedKeys(c.astSeen),
		Admitted:     c.admitted,
		Rejected:     c.rejected,
		Evicted:      c.evicted,
		Bumps:        c.bumps,
	}
	for _, sd := range c.seeds {
		s.Seeds = append(s.Seeds, SeedSnapshot{
			ID:         sd.ID,
			Source:     printer.Print(sd.Program),
			Edges:      sd.Profile.Edges(),
			Stmts:      sd.Profile.Stmts(),
			NewEdges:   sd.NewEdges,
			Size:       sd.Size,
			Energy:     sd.Energy,
			BaseEnergy: sd.BaseEnergy,
		})
	}
	return s
}

// FromSnapshot reconstructs a corpus from a checkpoint snapshot. A seed
// whose source no longer parses is an error, not a skip: a checkpoint is
// written atomically by this code, so damage means corruption, and
// resuming from a silently thinned corpus would diverge without a trace.
// A missing snapshot is an error too.
func FromSnapshot(s *Snapshot) (*Corpus, error) {
	if s == nil {
		return nil, fmt.Errorf("corpus snapshot: none")
	}
	c := New(s.MaxSeeds)
	c.nextID = s.NextID
	c.admitted = s.Admitted
	c.rejected = s.Rejected
	c.evicted = s.Evicted
	c.bumps = s.Bumps
	for _, e := range s.Edges {
		c.edges[e] = struct{}{}
	}
	for _, fp := range s.Fingerprints {
		c.fps[fp] = struct{}{}
	}
	for _, fp := range s.ASTSeen {
		c.astSeen[fp] = struct{}{}
	}
	for _, sd := range s.Seeds {
		prog, err := parser.Parse(sd.Source)
		if err != nil {
			return nil, fmt.Errorf("corpus snapshot seed %d: %w", sd.ID, err)
		}
		seed := &Seed{
			ID:         sd.ID,
			Program:    prog,
			Profile:    coverage.FromEdges(sd.Edges, sd.Stmts),
			NewEdges:   sd.NewEdges,
			Size:       sd.Size,
			Energy:     sd.Energy,
			BaseEnergy: sd.BaseEnergy,
		}
		c.seeds = append(c.seeds, seed)
		c.byID[seed.ID] = seed
		c.total += seed.Energy
	}
	return c, nil
}
