// Package bmv2 is the reference software-switch target's back end: the
// stand-in for p4c-bm2-ss, whose output simple_switch runs. core.Pipeline
// appends its lowering pass to the reference front and mid end; execution
// and packet tests go through the shared device core (package device),
// which zero-initializes undefined values as simple_switch does (§6.2).
package bmv2

import (
	"gauntlet/internal/compiler"
	"gauntlet/internal/p4/ast"
)

// lowering is the BMv2 JSON-generation stand-in. The reference lowering
// is behaviour-preserving (seeded defects are wired in by instrumentation).
type lowering struct{}

// Name identifies the pass in snapshots and bug reports.
func (lowering) Name() string { return "BMv2Lowering" }

// Run lowers the program for simple_switch (identity in the reference
// compiler).
func (lowering) Run(prog *ast.Program) (*ast.Program, error) { return prog, nil }

// BackendPasses returns the BMv2 back-end pipeline.
func BackendPasses() []compiler.Pass { return []compiler.Pass{lowering{}} }
