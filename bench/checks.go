package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"gauntlet/internal/core"
)

// digest identifies a finding set: its sorted fingerprints, kinds,
// passes and witness bytes.
func digest(findings []core.Finding) string {
	lines := make([]string, len(findings))
	for i, f := range findings {
		lines[i] = fmt.Sprintf("%016x %s %s\n%s", f.Fingerprint, f.Kind, f.Pass, f.Source)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// recordedDigest is one workload's expected finding set at its default
// slot budget.
type recordedDigest struct {
	Slots    int64  `json:"slots"`
	Digest   string `json:"digest"`
	Findings int    `json:"findings"`
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests parses digests.json. A change that alters what the
// campaigns find must update it, in the same change.
func recordedDigests() (map[string]recordedDigest, error) {
	var m map[string]recordedDigest
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// identities checks the documented Stats accounting identities (and the
// fleet's equivalents) on a finished run. A bounded run leaves nothing in
// flight, so each holds exactly.
func identities(w *workload, o *outcome, slots int64) []string {
	var errs []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	if s := o.stats; s != nil {
		q := o.quarantined
		check(s.Generated == uint64(slots), "Generated %d != slots %d", s.Generated, slots)
		early := s.Crashes + s.InvalidTransforms + s.CompileErrors + s.Compiled + q["generate"] + q["compile"]
		check(s.Generated == early, "Generated %d != Crashes+InvalidTransforms+CompileErrors+Compiled+early quarantine %d", s.Generated, early)
		late := s.Clean + s.Miscompilations + s.Mismatches + s.OracleErrors + q["oracle"]
		check(s.Compiled == late, "Compiled %d != Clean+Miscompilations+Mismatches+OracleErrors+oracle quarantine %d", s.Compiled, late)
		var records uint64
		for _, n := range q {
			records += n
		}
		check(s.Quarantined == records, "Quarantined %d != %d quarantine records", s.Quarantined, records)
		check(s.UniqueFindings == uint64(len(o.findings)), "UniqueFindings %d != %d findings returned", s.UniqueFindings, len(o.findings))
		if w.serve {
			check(o.appends == len(o.findings), "journal holds %d of %d findings", o.appends, len(o.findings))
		}
	}
	if f := o.fleet; f != nil {
		check(f.Totals.Generated == uint64(slots), "fleet Generated %d != slots %d", f.Totals.Generated, slots)
		check(f.LeasesReleased == f.LeasesTotal, "fleet released %d of %d leases", f.LeasesReleased, f.LeasesTotal)
		check(f.Findings == uint64(len(o.findings)), "fleet Findings %d != %d findings returned", f.Findings, len(o.findings))
	}
	check(len(o.foundAfter) == len(o.findings), "OnFinding saw %d findings, Run returned %d", len(o.foundAfter), len(o.findings))
	return errs
}

// table2Missed runs the registry-wide bug hunt (Table 2) and returns the
// confirmed bugs it misses.
func table2Missed() ([]string, error) {
	c := core.NewCampaign()
	dets, err := c.RunAll()
	if err != nil {
		return nil, err
	}
	return core.NewReport(c.Registry, dets).Missed(), nil
}
