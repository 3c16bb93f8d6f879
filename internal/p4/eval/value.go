// Package eval implements a concrete interpreter for the P4₁₆ subset. It is
// the execution core of both target simulators (BMv2 and the black-box
// Tofino stand-in) and serves as the differential oracle for the symbolic
// interpreter: for any program and concrete input, evaluating the symbolic
// functional form must equal this interpreter's output.
//
// Undefined values (uninitialized variables, out parameters, fields of
// freshly validated headers) are produced by a configurable policy; the
// BMv2 target uses all-zeros, matching the behaviour the paper relies on in
// §6.2 ("BMv2 initializes any undefined variable with zero").
package eval

import (
	"fmt"
	"sort"
	"strings"

	"gauntlet/internal/bitstream"
	"gauntlet/internal/p4/ast"
)

// Value is a runtime value. Composite values are mutated in place through
// pointers; use Clone for copy-in/copy-out.
type Value interface {
	// Clone returns a deep copy.
	Clone() Value
	// String renders the value for diagnostics and STF/PTF reports.
	String() string
}

// BitVal is a bit<Width> value. V is always masked to Width bits.
type BitVal struct {
	Width int
	V     uint64
}

// BoolVal is a bool value.
type BoolVal struct {
	V bool
}

// HeaderVal is a header instance: a validity bit plus named bit fields.
type HeaderVal struct {
	T     *ast.HeaderType
	Valid bool
	F     map[string]Value
}

// StructVal is a struct instance with named fields.
type StructVal struct {
	T *ast.StructType
	F map[string]Value
}

// PacketVal wraps the packet handed to parsers (R set: extract reads) and
// deparser controls (W set: emit appends).
type PacketVal struct {
	R *bitstream.Reader
	W *bitstream.Writer
}

// Clone returns a deep copy.
func (v *BitVal) Clone() Value { return &BitVal{Width: v.Width, V: v.V} }

// Clone returns a deep copy.
func (v *BoolVal) Clone() Value { return &BoolVal{V: v.V} }

// Clone returns a deep copy.
func (v *HeaderVal) Clone() Value {
	f := make(map[string]Value, len(v.F))
	for k, fv := range v.F {
		f[k] = fv.Clone()
	}
	return &HeaderVal{T: v.T, Valid: v.Valid, F: f}
}

// Clone returns a deep copy.
func (v *StructVal) Clone() Value {
	f := make(map[string]Value, len(v.F))
	for k, fv := range v.F {
		f[k] = fv.Clone()
	}
	return &StructVal{T: v.T, F: f}
}

// Clone returns the same packet (packets are identity objects: the parser
// cursor must advance across copy boundaries).
func (v *PacketVal) Clone() Value { return v }

// String renders the value.
func (v *BitVal) String() string { return fmt.Sprintf("%dw%d", v.Width, v.V) }

// String renders the value.
func (v *BoolVal) String() string {
	if v.V {
		return "true"
	}
	return "false"
}

// String renders the header with fields in declaration order.
func (v *HeaderVal) String() string {
	if !v.Valid {
		return "(invalid)"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range v.T.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name + "=" + v.F[f.Name].String())
	}
	b.WriteByte('}')
	return b.String()
}

// String renders the struct with fields in declaration order.
func (v *StructVal) String() string {
	var b strings.Builder
	b.WriteByte('{')
	if v.T != nil {
		for i, f := range v.T.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name + "=" + v.F[f.Name].String())
		}
	} else {
		var keys []string
		for k := range v.F {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k + "=" + v.F[k].String())
		}
	}
	b.WriteByte('}')
	return b.String()
}

// String renders the packet for diagnostics.
func (v *PacketVal) String() string { return "packet" }

// UndefPolicy produces the value observed when reading undefined data of
// the given bit width. Targets differ here; BMv2 yields zero.
type UndefPolicy func(width int) uint64

// ZeroUndef is the all-zeros policy (BMv2 behaviour).
func ZeroUndef(width int) uint64 { return 0 }

// NewValue constructs the default (undefined-per-policy) value of a type.
// Headers start invalid.
func NewValue(t ast.Type, undef UndefPolicy) Value {
	switch t := t.(type) {
	case *ast.BitType:
		return &BitVal{Width: t.Width, V: ast.MaskWidth(undef(t.Width), t.Width)}
	case *ast.BoolType:
		return &BoolVal{V: undef(1)&1 == 1}
	case *ast.HeaderType:
		h := &HeaderVal{T: t, Valid: false, F: map[string]Value{}}
		for _, f := range t.Fields {
			h.F[f.Name] = NewValue(f.Type, undef)
		}
		return h
	case *ast.StructType:
		s := &StructVal{T: t, F: map[string]Value{}}
		for _, f := range t.Fields {
			s.F[f.Name] = NewValue(f.Type, undef)
		}
		return s
	default:
		panic(fmt.Sprintf("eval.NewValue: cannot build value of type %T", t))
	}
}

// Equal reports deep equality of two values. Invalid headers compare equal
// regardless of field contents (the deparser drops them), matching the
// paper's output semantics: "if an invalid header is returned in the final
// output, all fields in the header are set to invalid as well".
func Equal(a, b Value) bool {
	switch a := a.(type) {
	case *BitVal:
		bb, ok := b.(*BitVal)
		return ok && a.Width == bb.Width && a.V == bb.V
	case *BoolVal:
		bb, ok := b.(*BoolVal)
		return ok && a.V == bb.V
	case *HeaderVal:
		bb, ok := b.(*HeaderVal)
		if !ok || a.Valid != bb.Valid {
			return false
		}
		if !a.Valid {
			return true
		}
		for name, fv := range a.F {
			if !Equal(fv, bb.F[name]) {
				return false
			}
		}
		return true
	case *StructVal:
		bb, ok := b.(*StructVal)
		if !ok || len(a.F) != len(bb.F) {
			return false
		}
		for name, fv := range a.F {
			ov, present := bb.F[name]
			if !present || !Equal(fv, ov) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
