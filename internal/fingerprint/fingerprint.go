// Package fingerprint derives stable FNV-1a content hashes from Go
// values. The simulation-trace cache (internal/simcache and the campaign
// layer above it) keys every cached cell by the fingerprint of its full
// identity — platform configuration, run definition, VF state, scale,
// sensor seed — so two cells collide only when every input that could
// influence the simulation is identical.
//
// Hashes are computed by a deterministic reflection walk in declaration
// order: the same value always produces the same hash within one schema
// of the hashed types, across processes and platforms. Renaming or
// reordering struct fields changes the hash — which is exactly the
// desired invalidation behaviour for a cache keyed on it (see
// docs/CACHE.md).
package fingerprint

import (
	"fmt"
	"math"
	"reflect"
	"sort"
)

// FNV-1a constants. Offset is exported so a running hash kept as a bare
// uint64 (internal/trace's interval fingerprints) can be seeded by a
// constant; Hash(Offset) == New().
const (
	Offset  = uint64(14695981039346656037)
	prime64 = uint64(1099511628211)
)

// Hash is a running FNV-1a state. The zero value is NOT a valid state;
// start from New.
type Hash uint64

// New returns the FNV-1a offset basis.
func New() Hash { return Hash(Offset) }

// Byte folds one byte into the hash.
func (h Hash) Byte(b byte) Hash { return Hash((uint64(h) ^ uint64(b)) * prime64) }

// U64 folds a uint64 little-endian byte by byte.
func (h Hash) U64(x uint64) Hash {
	v := uint64(h)
	for i := 0; i < 8; i++ {
		v = (v ^ (x & 0xff)) * prime64
		x >>= 8
	}
	return Hash(v)
}

// I64 folds a signed integer via its two's-complement bits.
func (h Hash) I64(x int64) Hash { return h.U64(uint64(x)) }

// F64 folds a float64 via its raw IEEE-754 bits, so values that differ
// in even one mantissa bit hash differently and -0 differs from +0.
func (h Hash) F64(x float64) Hash { return h.U64(math.Float64bits(x)) }

// Str folds a string's length and bytes (the length prefix keeps
// concatenation ambiguities like "ab","c" vs "a","bc" apart).
func (h Hash) Str(s string) Hash { return h.U64(uint64(len(s))).Raw(s) }

// Raw folds a string's bytes with no length prefix: New().Raw(s) is the
// plain FNV-1a hash of s, as hash/fnv's New64a computes it.
func (h Hash) Raw(s string) Hash {
	v := uint64(h)
	for i := 0; i < len(s); i++ {
		v = (v ^ uint64(s[i])) * prime64
	}
	return Hash(v)
}

// Sum returns the accumulated hash.
func (h Hash) Sum() uint64 { return uint64(h) }

// Of hashes every value in sequence with Value and returns the sum.
// It is the one-line form used to assemble cache keys.
func Of(vs ...any) uint64 {
	h := New()
	for _, v := range vs {
		h = h.Value(v)
	}
	return h.Sum()
}

// Kind tags keep differently-shaped values from colliding (e.g. the
// empty string vs the empty slice vs nil).
const (
	tagNil    = 0x01
	tagBool   = 0x02
	tagInt    = 0x03
	tagUint   = 0x04
	tagFloat  = 0x05
	tagString = 0x06
	tagSeq    = 0x07
	tagStruct = 0x08
	tagPtr    = 0x09
	tagMap    = 0x0a
)

// Value folds an arbitrary value into the hash by deterministic
// reflection walk: bools, integers, floats (raw bits), strings,
// slices/arrays (length + elements), structs (exported fields with
// their names, in declaration order; unexported fields are skipped),
// pointers and interfaces (nil marker, then the pointee), and maps
// (entry hashes, sorted). Channels and funcs panic: they have no
// content to address, and a cache key containing one is a bug.
func (h Hash) Value(v any) Hash {
	if v == nil {
		return h.Byte(tagNil)
	}
	return h.value(reflect.ValueOf(v))
}

func (h Hash) value(rv reflect.Value) Hash {
	switch rv.Kind() {
	case reflect.Bool:
		h = h.Byte(tagBool)
		if rv.Bool() {
			return h.Byte(1)
		}
		return h.Byte(0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return h.Byte(tagInt).I64(rv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return h.Byte(tagUint).U64(rv.Uint())
	case reflect.Float32, reflect.Float64:
		return h.Byte(tagFloat).F64(rv.Float())
	case reflect.String:
		return h.Byte(tagString).Str(rv.String())
	case reflect.Slice, reflect.Array:
		h = h.Byte(tagSeq).U64(uint64(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			h = h.value(rv.Index(i))
		}
		return h
	case reflect.Struct:
		t := rv.Type()
		h = h.Byte(tagStruct)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			h = h.Str(f.Name).value(rv.Field(i))
		}
		return h
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			return h.Byte(tagNil)
		}
		return h.Byte(tagPtr).value(rv.Elem())
	case reflect.Map:
		// Entry hashes are order-independent by construction: hash each
		// (key, value) pair separately, then fold the sorted pair hashes.
		h = h.Byte(tagMap).U64(uint64(rv.Len()))
		entries := make([]uint64, 0, rv.Len())
		it := rv.MapRange()
		for it.Next() {
			e := New().value(it.Key()).value(it.Value())
			entries = append(entries, e.Sum())
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
		for _, e := range entries {
			h = h.U64(e)
		}
		return h
	default:
		panic(fmt.Sprintf("fingerprint: cannot hash %s value", rv.Kind()))
	}
}
