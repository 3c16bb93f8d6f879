// Package device executes a compiled program as a packet-in/packet-out
// switch: the shared execution core of both target simulators, which
// zero-initialize undefined values as BMv2 does (§6.2). It threads a
// packet through the program's main pipeline (parser → controls →
// deparser) with the concrete interpreter, mirroring the architecture
// contract the symbolic composition assumes: blocks communicate through
// identically-named parameters (hdr, sm).
//
// Run is the one packet-test loop, the PTF/STF harness: it injects each
// generated test case and compares the result with the case's
// expectation. The oracle's packet tests and mismatch replay, p4interp
// and the test generator's reference-target tests all call it.
package device

import (
	"bytes"
	"errors"
	"fmt"

	"gauntlet/internal/bitstream"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/eval"
	"gauntlet/internal/testgen"
)

// Device is an executable pipeline over a compiled program.
type Device struct {
	prog *ast.Program
}

// New wraps a compiled program as a device.
func New(prog *ast.Program) *Device { return &Device{prog: prog} }

// Result is the observable outcome of injecting one packet.
type Result struct {
	// Drop is true when the parser rejected the packet (nothing egresses).
	Drop bool
	// Packet is the deparsed output packet when not dropped.
	Packet []byte
}

// String renders the result for mismatch reports: "drop" or the packet
// in hex.
func (r Result) String() string {
	if r.Drop {
		return "drop"
	}
	return fmt.Sprintf("%x", r.Packet)
}

// Equal compares two results (drop matches drop; otherwise byte-equal
// packets).
func Equal(a, b Result) bool {
	if a.Drop != b.Drop {
		return false
	}
	if a.Drop {
		return true
	}
	return bytes.Equal(a.Packet, b.Packet)
}

// Run injects every test case and compares the observed result with the
// case's expectation. It returns one description per mismatch together
// with the case that produced it (same order), so a reducer can replay
// one concrete counterexample instead of regenerating a suite. An
// injection error ends the run; the mismatches found before it are
// returned with it.
func (d *Device) Run(cases []testgen.Case) ([]string, []testgen.Case, error) {
	var out []string
	var bad []testgen.Case
	for _, c := range cases {
		obs, err := d.Inject(c.Config, c.Packet)
		if err != nil {
			return out, bad, err
		}
		want := Result{Drop: c.ExpectDrop, Packet: c.ExpectPacket}
		if !Equal(want, obs) {
			out = append(out, fmt.Sprintf("%s: expected %s, observed %s", c.Summary(), want, obs))
			bad = append(bad, c)
		}
	}
	return out, bad, nil
}

// Inject installs the table configuration, runs the packet through the
// pipeline and returns the observable result. cfg may be nil (all tables
// empty).
func (d *Device) Inject(cfg eval.Config, pkt []byte) (Result, error) {
	main := d.prog.Main()
	if main == nil {
		return Result{}, fmt.Errorf("device: program has no main instantiation")
	}
	in := eval.New(d.prog, cfg)
	pv := &eval.PacketVal{R: bitstream.NewReader(pkt), W: bitstream.NewWriter()}

	// Shared pipeline state: parameter name → value, carried across
	// blocks (the v1model/TNA contract both generator back ends emit).
	state := map[string]eval.Value{}
	for _, argName := range main.Args {
		decl := d.prog.DeclByName(argName)
		var params []ast.Param
		switch b := decl.(type) {
		case *ast.ParserDecl:
			params = b.Params
		case *ast.ControlDecl:
			params = b.Params
		default:
			return Result{}, fmt.Errorf("device: main argument %q is not a block", argName)
		}
		args := make([]eval.Value, len(params))
		for i, p := range params {
			if _, isPkt := p.Type.(*ast.PacketType); isPkt {
				args[i] = pv
				continue
			}
			if v, ok := state[p.Name]; ok {
				args[i] = v
			} else {
				args[i] = eval.NewValue(p.Type)
			}
		}
		var err error
		switch b := decl.(type) {
		case *ast.ParserDecl:
			err = in.ExecParser(b, args)
		case *ast.ControlDecl:
			err = in.ExecControl(b, args)
		}
		if err != nil {
			if errors.Is(err, eval.ErrReject) {
				return Result{Drop: true}, nil
			}
			return Result{}, err
		}
		for i, p := range params {
			if _, isPkt := p.Type.(*ast.PacketType); isPkt {
				continue
			}
			if p.Dir.Writes() {
				state[p.Name] = args[i]
			}
		}
	}
	return Result{Packet: pv.W.Bytes()}, nil
}
