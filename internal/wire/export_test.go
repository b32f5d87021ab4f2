package wire

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// What the external tests (registry_test.go) use of the package's insides.

const CodecTag = codecTag

var (
	Allocated = allocated
	Fresh     = fresh
	Rebody    = rebody
)

// FixtureSeeds are the captured fixtures of every protocol version, as
// whole messages.
func FixtureSeeds() [][]byte {
	seeds := [][]byte{frameV3Fixture[frameHeaderLen:], specV1Fixture, specV2PreGangFixture,
		announcePreWaitFixture, submitV1Fixture, statusV2PreGangFixture}
	for _, f := range fixtureValues() {
		seeds = append(seeds, f.bytes, rebody(f.bytes[2:len(f.bytes)/2]))
	}
	return seeds
}

// Registered lists the registered types by name.
func Registered() []reflect.Type {
	types := make([]reflect.Type, 0, len(registry))
	for t := range registry {
		types = append(types, t)
	}
	slices.SortFunc(types, func(a, b reflect.Type) int { return strings.Compare(a.String(), b.String()) })
	return types
}

// MinSize is the smallest encoding of a t, its length prefix included.
func MinSize(t reflect.Type) int {
	p, err := planOf(t)
	if err != nil {
		panic(err)
	}
	return p.min
}

var opNames = [...]string{opInt: "varint", opUint: "uvarint", opByte: "uvarint8", opFixed64: "fixed64",
	opFloat: "float64", opBool: "bool", opString: "string", opBytes: "bytes", opPayload: "bytes", opStrings: "strings",
	opFloats: "floats", opFrames: "frames", opCounts: "counts", opStruct: "struct", opStructs: "structs"}

// Shapes lists the fields of every registered type and of every struct
// nested in one, in order, one "type field encoding [element type]" line
// each: the format of testdata/shapes.golden.
func Shapes() string {
	var sb strings.Builder
	seen := map[reflect.Type]bool{}
	var walk func(p *plan)
	walk = func(p *plan) {
		if seen[p.typ] {
			return
		}
		seen[p.typ] = true
		for _, f := range p.fields {
			fmt.Fprintf(&sb, "%v %s %s", p.typ, f.name, opNames[f.op])
			if f.elem != nil {
				fmt.Fprintf(&sb, " %v", f.elem.typ)
			}
			sb.WriteByte('\n')
		}
		for _, f := range p.fields {
			if f.elem != nil {
				walk(f.elem)
			}
		}
	}
	for _, t := range Registered() {
		walk(registry[t])
	}
	return sb.String()
}
