package sym

import (
	"fmt"

	"gauntlet/internal/p4/ast"
	"gauntlet/internal/smt"
)

// Pipeline is the composed symbolic form of a whole packet-processing
// pipeline (parser → controls → deparser): the end-to-end function from
// input packet bits, table state and metadata to the emitted packet.
// Black-box test generation (§6) works on this composition, since a
// proprietary back end only exposes whole-pipeline behaviour.
type Pipeline struct {
	// Ctx is the smt context the pipeline's terms live in (the blocks'
	// context); test generation builds its auxiliary constraints there.
	Ctx *smt.Context
	// Env maps flattened leaf names (hdr.h1.f1, sm.egress_spec,
	// hdr.h1.$valid) to their final terms after all blocks.
	Env map[string]*smt.Term
	// Emits is the deparser emit sequence, fully substituted.
	Emits []EmitRecord
	// Reject is the parser-reject (drop) condition.
	Reject *smt.Term
	// BranchConds aggregates every block's branch conditions, fully
	// substituted into pipeline context, in execution order.
	BranchConds []*smt.Term
	// TableVars and HavocNames aggregate the blocks' auxiliary inputs.
	TableVars  []string
	HavocNames []string
	// PacketBits is the number of packet bit variables the parser reads.
	PacketBits int
	// FieldTerms lists the post-parse header field terms (used for
	// non-zero model preference, §6.2).
	FieldTerms []*smt.Term
	// ExternalInputs lists the first block's in/inout parameter leaves:
	// state the target supplies at pipeline entry (standard metadata).
	// Test generation pins these to the target's initial values.
	ExternalInputs []NamedTerm
}

// ComposePipeline chains blocks in order. The first block should be the
// parser, the last the deparser; controls in between. Blocks communicate
// through identically-named parameters (the architecture contract: hdr,
// sm).
func ComposePipeline(blocks []*Block) (*Pipeline, error) {
	sctx := smt.DefaultContext()
	if len(blocks) > 0 && blocks[0].Ctx != nil {
		sctx = blocks[0].Ctx
	}
	p := &Pipeline{Ctx: sctx, Env: map[string]*smt.Term{}, Reject: sctx.False()}
	seenHavoc := map[string]bool{}
	for bi, b := range blocks {
		// Substitution: this block's fresh inputs stand for the previous
		// block's outputs.
		repl := map[string]*smt.Term{}
		for name, term := range p.Env {
			repl[name] = term
		}
		// Collect this block's outputs, substituted.
		var flat []NamedTerm
		for _, o := range b.Out {
			Flatten(o.Name, o.Val, &flat)
		}
		next := map[string]*smt.Term{}
		for _, nt := range flat {
			next[nt.Name] = smt.Subst(nt.Term, repl)
		}
		for name, term := range next {
			p.Env[name] = term
		}
		if b.Reject != nil {
			p.Reject = smt.Or(p.Reject, smt.Subst(b.Reject, repl))
		}
		for _, c := range b.BranchConds {
			p.BranchConds = append(p.BranchConds, smt.Subst(c, repl))
		}
		for _, e := range b.Emits {
			ne := EmitRecord{Cond: smt.Subst(e.Cond, repl)}
			for _, f := range e.Fields {
				ne.Fields = append(ne.Fields, NamedTerm{Name: f.Name, Term: smt.Subst(f.Term, repl)})
			}
			p.Emits = append(p.Emits, ne)
		}
		p.TableVars = append(p.TableVars, b.TableVars...)
		for _, h := range b.UndefNames {
			if !seenHavoc[h] {
				seenHavoc[h] = true
				p.HavocNames = append(p.HavocNames, h)
			}
		}
		if bi == 0 {
			p.PacketBits = b.PacketBits
			p.ExternalInputs = b.Inputs
			// Post-parse field terms: everything the parser extracted.
			for _, nt := range flat {
				if nt.Term.W > 0 {
					p.FieldTerms = append(p.FieldTerms, next[nt.Name])
				}
			}
		}
	}
	return p, nil
}

// PipelineOfIn builds the standard 4-block pipeline from a program's
// main instantiation: parser, ingress, egress, deparser (the v1model /
// TNA shape both generator back ends emit), with every term built in the
// given smt context.
func PipelineOfIn(sctx *smt.Context, prog *ast.Program) (*Pipeline, error) {
	main := prog.Main()
	if main == nil {
		return nil, fmt.Errorf("sym: program has no main instantiation")
	}
	var blocks []*Block
	for _, arg := range main.Args {
		switch d := prog.DeclByName(arg).(type) {
		case *ast.ParserDecl:
			b, err := ExecParserIn(sctx, prog, d)
			if err != nil {
				return nil, err
			}
			blocks = append(blocks, b)
		case *ast.ControlDecl:
			b, err := ExecControlIn(sctx, prog, d)
			if err != nil {
				return nil, err
			}
			blocks = append(blocks, b)
		default:
			return nil, fmt.Errorf("sym: main argument %q is not a block", arg)
		}
	}
	return ComposePipeline(blocks)
}
