// Package ast defines the abstract syntax tree for the P4₁₆ subset used by
// Gauntlet: headers, structs, bit<N> and bool types, controls, parsers,
// actions, tables, functions with in/inout/out parameter directions, and the
// statement and expression grammar the paper's programs exercise.
//
// All nodes are immutable by convention once handed to another component;
// compiler passes transform deep clones (see Clone). Structural identity of
// whole programs is defined by the printed form (see Fingerprint in the
// printer package), matching the paper's "skip hash-identical pass outputs"
// behaviour (§5.2).
package ast

import (
	"fmt"
	"strings"
)

// Type is the interface implemented by all P4 type representations.
//
// NamedType values appear in freshly parsed or generated programs; the type
// checker resolves them to their declared header/struct/typedef types. All
// semantic components (evaluator, symbolic interpreter) require resolved
// types.
type Type interface {
	typeNode()
	// String renders the type in P4 source syntax.
	String() string
	// Equal reports structural equality, resolving nothing.
	Equal(Type) bool
}

// BitType is bit<Width>, an unsigned bit vector. Width is limited to 64 in
// this reproduction (checked by the type checker); the paper's programs use
// widths up to 48.
type BitType struct {
	Width int
}

// BoolType is the P4 bool type.
type BoolType struct{}

// VoidType is the return type of void functions and actions.
type VoidType struct{}

// HeaderType is a declared header type: an ordered list of bit-typed fields
// plus a validity bit manipulated via setValid/setInvalid/isValid.
type HeaderType struct {
	Name   string
	Fields []Field
}

// StructType is a declared struct type: an ordered list of fields of any
// type (including nested headers and structs).
type StructType struct {
	Name   string
	Fields []Field
}

// NamedType is an unresolved reference to a declared type. The type checker
// replaces these with the declared HeaderType/StructType/underlying type.
type NamedType struct {
	Name string
}

// PacketType is the builtin packet type (the subset's merger of P4's
// packet_in and packet_out). Parser parameters of this type support
// pkt.extract(hdr); deparser control parameters support pkt.emit(hdr).
type PacketType struct{}

// UnsizedType is the internal type of integer literals that have not yet
// received a contextual width (P4's arbitrary-precision int). It never
// appears in declarations; the type checker eliminates it by sizing
// literals from context.
type UnsizedType struct {
	Val uint64
}

// Field is a single field of a header or struct.
type Field struct {
	Name string
	Type Type
}

func (*BitType) typeNode()     {}
func (*BoolType) typeNode()    {}
func (*VoidType) typeNode()    {}
func (*HeaderType) typeNode()  {}
func (*StructType) typeNode()  {}
func (*NamedType) typeNode()   {}
func (*UnsizedType) typeNode() {}
func (*PacketType) typeNode()  {}

// String renders the packet type keyword.
func (t *PacketType) String() string { return "packet" }

// Equal reports whether o is also the packet type.
func (t *PacketType) Equal(o Type) bool {
	_, ok := o.(*PacketType)
	return ok
}

// String renders the abstract integer type.
func (t *UnsizedType) String() string { return "int" }

// Equal reports whether o is also an unsized integer type.
func (t *UnsizedType) Equal(o Type) bool {
	_, ok := o.(*UnsizedType)
	return ok
}

// String renders the type in P4 source syntax.
func (t *BitType) String() string { return fmt.Sprintf("bit<%d>", t.Width) }

// String renders the type in P4 source syntax.
func (t *BoolType) String() string { return "bool" }

// String renders the type in P4 source syntax.
func (t *VoidType) String() string { return "void" }

// String renders the header type by name (declared types are referenced by
// name in source positions).
func (t *HeaderType) String() string { return t.Name }

// String renders the struct type by name.
func (t *StructType) String() string { return t.Name }

// String renders the unresolved type reference.
func (t *NamedType) String() string { return t.Name }

// Equal reports structural equality with another type.
func (t *BitType) Equal(o Type) bool {
	b, ok := o.(*BitType)
	return ok && b.Width == t.Width
}

// Equal reports structural equality with another type.
func (t *BoolType) Equal(o Type) bool {
	_, ok := o.(*BoolType)
	return ok
}

// Equal reports structural equality with another type.
func (t *VoidType) Equal(o Type) bool {
	_, ok := o.(*VoidType)
	return ok
}

// Equal reports equality by declared name; header types are nominal in P4.
func (t *HeaderType) Equal(o Type) bool {
	h, ok := o.(*HeaderType)
	return ok && h.Name == t.Name
}

// Equal reports equality by declared name; struct types are nominal in P4.
func (t *StructType) Equal(o Type) bool {
	s, ok := o.(*StructType)
	return ok && s.Name == t.Name
}

// Equal reports whether o names the same type (or is the resolved type with
// the same name), so comparisons keep working mid-resolution.
func (t *NamedType) Equal(o Type) bool {
	switch o := o.(type) {
	case *NamedType:
		return o.Name == t.Name
	case *HeaderType:
		return o.Name == t.Name
	case *StructType:
		return o.Name == t.Name
	}
	return false
}

// FieldByName returns the header field with the given name.
func (t *HeaderType) FieldByName(name string) (Field, bool) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// FieldByName returns the struct field with the given name.
func (t *StructType) FieldByName(name string) (Field, bool) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// BitWidth returns the total bit width of a type: the declared width for
// bit<N>, 1 for bool (as packed), and the sum of field widths (plus nothing
// for the validity bit, which is out-of-band) for headers and structs.
func BitWidth(t Type) int {
	switch t := t.(type) {
	case *BitType:
		return t.Width
	case *BoolType:
		return 1
	case *HeaderType:
		w := 0
		for _, f := range t.Fields {
			w += BitWidth(f.Type)
		}
		return w
	case *StructType:
		w := 0
		for _, f := range t.Fields {
			w += BitWidth(f.Type)
		}
		return w
	default:
		return 0
	}
}

// CloneType deep-copies a type. Declared types share field slices safely
// because fields are never mutated after declaration, but the copy keeps a
// clone free of any object its original holds.
func CloneType(t Type) Type {
	switch t := t.(type) {
	case nil:
		return nil
	case *BitType:
		return &BitType{Width: t.Width}
	case *BoolType:
		return &BoolType{}
	case *VoidType:
		return &VoidType{}
	case *PacketType:
		return &PacketType{}
	case *NamedType:
		return &NamedType{Name: t.Name}
	case *HeaderType:
		return &HeaderType{Name: t.Name, Fields: cloneFields(t.Fields)}
	case *StructType:
		return &StructType{Name: t.Name, Fields: cloneFields(t.Fields)}
	default:
		panic(fmt.Sprintf("ast.CloneType: unknown type %T", t))
	}
}

func cloneFields(fs []Field) []Field {
	out := make([]Field, len(fs))
	for i, f := range fs {
		out[i] = Field{Name: f.Name, Type: CloneType(f.Type)}
	}
	return out
}

// Direction is a parameter direction (P4₁₆ §6.7 copy-in/copy-out calling
// convention). DirNone is used for action "data plane" parameters bound by
// the control plane.
type Direction int

// Parameter directions.
const (
	DirNone Direction = iota
	DirIn
	DirOut
	DirInOut
)

// String renders the direction keyword ("" for DirNone).
func (d Direction) String() string {
	switch d {
	case DirIn:
		return "in"
	case DirOut:
		return "out"
	case DirInOut:
		return "inout"
	default:
		return ""
	}
}

// Reads reports whether the caller's argument value is copied in.
func (d Direction) Reads() bool { return d == DirIn || d == DirInOut || d == DirNone }

// Writes reports whether the parameter is copied back out on return.
func (d Direction) Writes() bool { return d == DirOut || d == DirInOut }

// Param is a parameter of a control, parser, action, or function.
type Param struct {
	Dir  Direction
	Name string
	Type Type
}

// String renders the parameter in P4 syntax, e.g. "inout bit<8> x".
func (p Param) String() string {
	var b strings.Builder
	if d := p.Dir.String(); d != "" {
		b.WriteString(d)
		b.WriteByte(' ')
	}
	b.WriteString(p.Type.String())
	b.WriteByte(' ')
	b.WriteString(p.Name)
	return b.String()
}
