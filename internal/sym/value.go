// Package sym implements Gauntlet's symbolic interpreter (§5.2): it
// converts programmable blocks of a P4 program into logic formulas over the
// smt package. The functional form mirrors the paper's Figure 3 — one
// (possibly nested-ITE) term per output field, with symbolic table keys and
// action indices standing in for unknown control-plane state, and fresh
// "undef" symbols for undefined values.
//
// The interpreter uses guarded state merging rather than per-path
// enumeration inside control blocks: every assignment is guarded by the
// current liveness term, so exit/return and branch joins produce exactly
// the nested if-then-else structure of the paper's example.
package sym

import (
	"fmt"
	"sort"

	"gauntlet/internal/p4/ast"
	"gauntlet/internal/smt"
)

// Value is a symbolic value mirroring eval.Value.
type Value interface {
	symValue()
	// Clone deep-copies the value (terms are immutable and shared).
	Clone() Value
}

// BitVal is a symbolic bit<N>: a bitvector term of width N.
type BitVal struct {
	T *smt.Term
}

// BoolVal is a symbolic bool: a boolean term.
type BoolVal struct {
	T *smt.Term
}

// HeaderVal is a symbolic header: a boolean validity term plus fields.
type HeaderVal struct {
	Type  *ast.HeaderType
	Valid *smt.Term
	F     map[string]Value
}

// StructVal is a symbolic struct.
type StructVal struct {
	Type *ast.StructType
	F    map[string]Value
}

func (*BitVal) symValue()    {}
func (*BoolVal) symValue()   {}
func (*HeaderVal) symValue() {}
func (*StructVal) symValue() {}

// Clone deep-copies the value.
func (v *BitVal) Clone() Value { return &BitVal{T: v.T} }

// Clone deep-copies the value.
func (v *BoolVal) Clone() Value { return &BoolVal{T: v.T} }

// Clone deep-copies the value.
func (v *HeaderVal) Clone() Value {
	f := make(map[string]Value, len(v.F))
	for k, fv := range v.F {
		f[k] = fv.Clone()
	}
	return &HeaderVal{Type: v.Type, Valid: v.Valid, F: f}
}

// Clone deep-copies the value.
func (v *StructVal) Clone() Value {
	f := make(map[string]Value, len(v.F))
	for k, fv := range v.F {
		f[k] = fv.Clone()
	}
	return &StructVal{Type: v.Type, F: f}
}

// Merge builds Ite(cond, a, b) structurally over two values of the same
// shape.
func Merge(cond *smt.Term, a, b Value) Value {
	if cond.IsTrue() {
		return a
	}
	if cond.IsFalse() {
		return b
	}
	if _, isPkt := a.(*packetRef); isPkt {
		return a
	}
	switch av := a.(type) {
	case *BitVal:
		bv := b.(*BitVal)
		return &BitVal{T: smt.Ite(cond, av.T, bv.T)}
	case *BoolVal:
		bv := b.(*BoolVal)
		return &BoolVal{T: smt.Ite(cond, av.T, bv.T)}
	case *HeaderVal:
		bv := b.(*HeaderVal)
		f := make(map[string]Value, len(av.F))
		for k := range av.F {
			f[k] = Merge(cond, av.F[k], bv.F[k])
		}
		return &HeaderVal{Type: av.Type, Valid: smt.Ite(cond, av.Valid, bv.Valid), F: f}
	case *StructVal:
		bv := b.(*StructVal)
		f := make(map[string]Value, len(av.F))
		for k := range av.F {
			f[k] = Merge(cond, av.F[k], bv.F[k])
		}
		return &StructVal{Type: av.Type, F: f}
	default:
		panic(fmt.Sprintf("sym.Merge: unknown value %T", a))
	}
}

// FreshInputIn builds a symbolic value of type t whose leaves are input
// variables named by dotted path (e.g. "hdr.h.a", "hdr.h.$valid"),
// interned in the given smt context. Header validity bits are inputs
// too: the paper checks equivalence over all header validity
// combinations.
func FreshInputIn(c *smt.Context, name string, t ast.Type) Value {
	switch t := t.(type) {
	case *ast.BitType:
		return &BitVal{T: c.Var(name, t.Width)}
	case *ast.BoolType:
		return &BoolVal{T: c.BoolVar(name)}
	case *ast.HeaderType:
		h := &HeaderVal{Type: t, Valid: c.BoolVar(name + ".$valid"), F: map[string]Value{}}
		for _, f := range t.Fields {
			h.F[f.Name] = FreshInputIn(c, name+"."+f.Name, f.Type)
		}
		return h
	case *ast.StructType:
		s := &StructVal{Type: t, F: map[string]Value{}}
		for _, f := range t.Fields {
			s.F[f.Name] = FreshInputIn(c, name+"."+f.Name, f.Type)
		}
		return s
	default:
		panic(fmt.Sprintf("sym.FreshInputIn: cannot build input of type %T", t))
	}
}

// Undef produces the symbols standing for undefined values (uninitialized
// variables, out parameters, fields of freshly validated headers).
//
// This reproduction ascribes its own semantics to undefined behaviour, as
// §4.1 licenses ("we chose to provide our own semantics for undefined
// behavior in P4 as part of the logic formulas"): every undefined read of
// width w yields the same per-width havoc symbol havoc_w. Per-occurrence
// free variables would be strictly more precise, but their numbering
// shifts whenever a pass adds or removes temporaries, producing exactly
// the false alarms §8 describes under "missing simulation relations";
// a per-width constant is stable across translations.
type Undef struct {
	// Ctx is the smt context the havoc symbols are interned in (nil =
	// the default context).
	Ctx *smt.Context

	widths map[int]bool
}

func (u *Undef) ctx() *smt.Context {
	if u.Ctx != nil {
		return u.Ctx
	}
	return smt.DefaultContext()
}

// Fresh returns the undefined symbol of the given width (0 = bool).
func (u *Undef) Fresh(width int) *smt.Term {
	if u.widths == nil {
		u.widths = map[int]bool{}
	}
	u.widths[width] = true
	return u.ctx().Var(fmt.Sprintf("havoc_%d", width), width)
}

// Names returns all havoc symbol names issued so far.
func (u *Undef) Names() []string {
	var out []string
	for w := range u.widths {
		out = append(out, fmt.Sprintf("havoc_%d", w))
	}
	sort.Strings(out)
	return out
}

// NewUndefValue builds a value of type t whose leaves are fresh undef
// symbols; headers start invalid.
func NewUndefValue(t ast.Type, u *Undef) Value {
	switch t := t.(type) {
	case *ast.BitType:
		return &BitVal{T: u.Fresh(t.Width)}
	case *ast.BoolType:
		return &BoolVal{T: u.Fresh(0)}
	case *ast.HeaderType:
		h := &HeaderVal{Type: t, Valid: u.ctx().False(), F: map[string]Value{}}
		for _, f := range t.Fields {
			h.F[f.Name] = NewUndefValue(f.Type, u)
		}
		return h
	case *ast.StructType:
		s := &StructVal{Type: t, F: map[string]Value{}}
		for _, f := range t.Fields {
			s.F[f.Name] = NewUndefValue(f.Type, u)
		}
		return s
	default:
		panic(fmt.Sprintf("sym.NewUndefValue: cannot build value of type %T", t))
	}
}

// Flatten appends (name, term) pairs for every leaf of the value, using
// dotted paths and "$valid" for header validity bits. Iteration order is
// deterministic (declaration order for typed composites).
func Flatten(name string, v Value, out *[]NamedTerm) {
	switch v := v.(type) {
	case *BitVal:
		*out = append(*out, NamedTerm{Name: name, Term: v.T})
	case *BoolVal:
		*out = append(*out, NamedTerm{Name: name, Term: v.T})
	case *HeaderVal:
		*out = append(*out, NamedTerm{Name: name + ".$valid", Term: v.Valid})
		for _, f := range v.Type.Fields {
			Flatten(name+"."+f.Name, v.F[f.Name], out)
		}
	case *StructVal:
		if v.Type != nil {
			for _, f := range v.Type.Fields {
				Flatten(name+"."+f.Name, v.F[f.Name], out)
			}
			return
		}
		keys := make([]string, 0, len(v.F))
		for k := range v.F {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			Flatten(name+"."+k, v.F[k], out)
		}
	default:
		panic(fmt.Sprintf("sym.Flatten: unknown value %T", v))
	}
}

// NamedTerm pairs an output leaf name with its term.
type NamedTerm struct {
	Name string
	Term *smt.Term
}

// EqualValues builds the term "a and b are observably equal": bit and bool
// leaves equal; headers equal when validity bits agree and, if valid, all
// fields agree (invalid headers hide their fields — the deparser drops
// them, §5.2 header-validity semantics).
func EqualValues(a, b Value) *smt.Term {
	switch av := a.(type) {
	case *BitVal:
		return smt.Eq(av.T, b.(*BitVal).T)
	case *BoolVal:
		return smt.Eq(av.T, b.(*BoolVal).T)
	case *HeaderVal:
		bv := b.(*HeaderVal)
		fieldsEq := smt.True
		for _, f := range av.Type.Fields {
			fieldsEq = smt.And(fieldsEq, EqualValues(av.F[f.Name], bv.F[f.Name]))
		}
		return smt.And(
			smt.Eq(av.Valid, bv.Valid),
			smt.Or(smt.Not(av.Valid), fieldsEq),
		)
	case *StructVal:
		bv := b.(*StructVal)
		eq := smt.True
		for k, fv := range av.F {
			eq = smt.And(eq, EqualValues(fv, bv.F[k]))
		}
		return eq
	default:
		panic(fmt.Sprintf("sym.EqualValues: unknown value %T", a))
	}
}

// width returns the leaf width of a bit/bool symbolic value.
func width(v Value) int {
	switch v := v.(type) {
	case *BitVal:
		return v.T.W
	case *BoolVal:
		return 0
	default:
		panic(fmt.Sprintf("sym.width: not a leaf value: %T", v))
	}
}
