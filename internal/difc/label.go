// Package difc implements the decentralized information flow control model
// used by Laminar (Roy et al., PLDI 2009): tags, labels, capability sets,
// and the rules that determine which information flows are legal.
//
// The package is pure — it has no dependency on the runtime or kernel
// substrates — and every type in it is immutable after construction, which
// mirrors the paper's immutable-label design (§4.5) and lets labels be
// shared freely between threads, objects and security regions without
// synchronization.
package difc

import (
	"fmt"
	"sort"
	"strings"
)

// Tag is a short arbitrary token drawn from a 64-bit universe (§3.1). A tag
// has no inherent meaning; meaning comes from the labels and capabilities
// that reference it. The zero value is reserved as "no tag" and never
// allocated.
type Tag uint64

// InvalidTag is the reserved zero tag. Allocators never return it and
// labels never contain it.
const InvalidTag Tag = 0

// String formats the tag as t<n> for readable test and log output.
func (t Tag) String() string { return fmt.Sprintf("t%d", uint64(t)) }

// inlineCap is the largest tag count stored inline in the Label value
// itself. Real DIFC labels are tiny — a principal's secrecy label is
// typically one or two tags — so the inline representation covers the
// hot path without ever touching the heap.
const inlineCap = 4

// Label is an immutable set of tags. A label is attached to principals and
// data objects, once for secrecy and once for integrity. The subset
// relation over labels forms the lattice of Denning's model; the empty
// label is the lattice bottom and is the implicit label of every unlabeled
// resource (§3.1).
//
// Labels at or below inlineCap tags are stored inline in the value itself
// (heap == nil, tags in inline[:n]); larger labels spill to a heap slice.
// The representation is invisible through the API: Equal, SubsetOf and the
// codecs agree between an inline label and a heap twin with the same tags.
//
// The zero value is the empty label and is ready to use.
type Label struct {
	// heap holds the tags, sorted ascending with no duplicates, when the
	// label is too large for the inline array. nil means the inline
	// representation is in use. Never mutated after construction.
	heap []Tag
	// id is the canonical intern identity assigned by Intern (intern.go)
	// for telemetry provenance and cluster routes: 0 means "not
	// interned"; equal nonzero ids imply equal tag sets and vice versa.
	// Derived labels (Union, Minus, ...) start un-interned.
	id uint64
	// sig is a 64-bit membership signature (one hashed bit per tag).
	// l ⊆ other requires l.sig &^ other.sig == 0, giving SubsetOf and Has
	// an O(1) rejection path that never consults the tag storage.
	sig uint64
	// inline and n hold small tag sets by value; meaningful only when
	// heap == nil.
	inline [inlineCap]Tag
	n      uint8
}

// EmptyLabel is the label of unlabeled resources: {S()} or {I()}.
var EmptyLabel = Label{}

// tagBit hashes a tag onto one bit of the signature word.
func tagBit(t Tag) uint64 {
	h := uint64(t) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return 1 << (h & 63)
}

// view returns the label's tags without copying. The result aliases the
// receiver (the inline array for small labels), so it must not escape or
// outlive the *Label it came from; every use in this package reads it and
// drops it within the calling function.
func (l *Label) view() []Tag {
	if l.heap != nil {
		return l.heap
	}
	return l.inline[:l.n]
}

// labelOf builds a label from a sorted, deduplicated, InvalidTag-free
// slice. Small sets are copied into the inline array and the input slice
// is not retained; larger sets retain the slice, so callers passing
// scratch-backed slices must go through labelCopy instead.
func labelOf(tags []Tag) Label {
	var l Label
	if len(tags) == 0 {
		return l
	}
	for _, t := range tags {
		l.sig |= tagBit(t)
	}
	if len(tags) <= inlineCap {
		l.n = uint8(copy(l.inline[:], tags))
		return l
	}
	l.heap = tags
	return l
}

// labelCopy is labelOf for slices the label must not retain (stack
// scratch): large results are copied to a fresh heap slice first.
func labelCopy(tags []Tag) Label {
	if len(tags) > inlineCap {
		h := make([]Tag, len(tags))
		copy(h, tags)
		return labelOf(h)
	}
	return labelOf(tags)
}

// withID returns a copy of l carrying the given intern id.
func (l Label) withID(id uint64) Label {
	l.id = id
	return l
}

// NewLabel builds a label from the given tags. Duplicates are collapsed and
// InvalidTag entries are dropped. Small inputs are normalized entirely on
// the stack, so constructing the one- and two-tag labels that dominate real
// workloads performs no allocation.
func NewLabel(tags ...Tag) Label {
	if len(tags) == 0 {
		return Label{}
	}
	var scratch [2 * inlineCap]Tag
	var ts []Tag
	if len(tags) <= len(scratch) {
		ts = scratch[:0]
	} else {
		ts = make([]Tag, 0, len(tags))
	}
	for _, t := range tags {
		if t != InvalidTag {
			ts = append(ts, t)
		}
	}
	if len(ts) <= len(scratch) {
		// Insertion sort: no closure, no interface, no escape.
		for i := 1; i < len(ts); i++ {
			for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
	} else {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	}
	// Dedup in place.
	out := ts[:0]
	var prev Tag
	for i, t := range ts {
		if i == 0 || t != prev {
			out = append(out, t)
		}
		prev = t
	}
	return labelCopy(out)
}

// newLabelHeap builds a label that uses the heap representation even when
// the tag set would fit inline. It exists so tests (FuzzInlineLabel) can
// pit the two representations against each other; nothing else should
// create small heap labels.
func newLabelHeap(tags ...Tag) Label {
	l := NewLabel(tags...)
	if l.heap == nil && l.n > 0 {
		h := make([]Tag, l.n)
		copy(h, l.inline[:l.n])
		l.heap = h
		l.n = 0
		l.inline = [inlineCap]Tag{}
	}
	return l
}

// Len reports the number of tags in the label.
func (l Label) Len() int {
	if l.heap != nil {
		return len(l.heap)
	}
	return int(l.n)
}

// IsEmpty reports whether the label is the empty (bottom) label.
func (l Label) IsEmpty() bool { return l.heap == nil && l.n == 0 }

// Has reports whether tag t is a member of the label.
func (l Label) Has(t Tag) bool {
	if l.sig&tagBit(t) == 0 {
		return false
	}
	v := l.view()
	i := sort.Search(len(v), func(i int) bool { return v[i] >= t })
	return i < len(v) && v[i] == t
}

// Tags returns a copy of the label's tags in ascending order. The copy may
// be mutated by the caller without affecting the label.
func (l Label) Tags() []Tag {
	v := l.view()
	if len(v) == 0 {
		return nil
	}
	out := make([]Tag, len(v))
	copy(out, v)
	return out
}

// Each calls fn for every tag in ascending order, stopping early when fn
// returns false. It is the allocation-free alternative to Tags() for hot
// paths that only need to walk the set (ISSUE 10's budget charging).
func (l Label) Each(fn func(Tag) bool) {
	for _, t := range l.view() {
		if !fn(t) {
			return
		}
	}
}

// searchRatio is the size ratio at which SubsetOf switches from the
// merge walk to a binary search per tag of l. The merge walk costs one
// step per tag of other it passes; the search costs about log2 of the
// remaining length per tag of l but branches unpredictably. A
// microbenchmark of subset-true pairs (l drawn from a random 8..128-tag
// other; amd64, Go 1.24, medians of 5) put the break-even between 4× and
// 8×: at 8× the search won or tied (2 in 16: 26 against 31 ns; 16 in
// 128: 222 against 266 ns), at 4× the merge won every size (32 in 128:
// 305 against 578 ns), and at 1 in 128 the search took 15 ns against
// 208 ns.
const searchRatio = 8

// SubsetOf reports whether every tag in l is also in other (l ⊆ other).
// It is a pure function of the two tag sets. The signature word rejects
// most non-subsets in one AND-NOT and a longer l cannot be a subset; the
// survivors are decided by a binary search per tag of l when other is at
// least searchRatio times larger, and by a sorted merge walk otherwise.
func (l Label) SubsetOf(other Label) bool {
	if l.sig&^other.sig != 0 {
		return false // some tag of l hashes outside other's signature
	}
	a, b := l.view(), other.view()
	if len(a) > len(b) {
		return false
	}
	if len(a)*searchRatio <= len(b) {
		return subsetSearch(a, b)
	}
	return subsetMerge(a, b)
}

// subsetSearch decides a ⊆ b by looking each tag of a up in b by binary
// search, resuming after the previous hit (both slices are sorted).
func subsetSearch(a, b []Tag) bool {
	lo := 0
	for _, t := range a {
		i, j := lo, len(b)
		for i < j {
			h := int(uint(i+j) >> 1)
			if b[h] < t {
				i = h + 1
			} else {
				j = h
			}
		}
		if i == len(b) || b[i] != t {
			return false
		}
		lo = i + 1
	}
	return true
}

// subsetMerge decides a ⊆ b by one sorted merge walk over both slices.
func subsetMerge(a, b []Tag) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}

// Equal reports whether two labels contain exactly the same tags.
func (l Label) Equal(other Label) bool {
	if l.id != 0 && other.id != 0 {
		// Intern ids are canonical: equal ids ⇔ equal tag sets.
		return l.id == other.id
	}
	if l.sig != other.sig {
		return false
	}
	a, b := l.view(), other.view()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Union returns the least upper bound of l and other in the label lattice.
func (l Label) Union(other Label) Label {
	if l.IsEmpty() {
		return other
	}
	if other.IsEmpty() {
		return l
	}
	a, b := l.view(), other.view()
	var scratch [2 * inlineCap]Tag
	var out []Tag
	if len(a)+len(b) <= len(scratch) {
		out = scratch[:0]
	} else {
		out = make([]Tag, 0, len(a)+len(b))
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return labelCopy(out)
}

// Meet returns the greatest lower bound (intersection) of l and other.
func (l Label) Meet(other Label) Label {
	if l.IsEmpty() || other.IsEmpty() {
		return Label{}
	}
	a, b := l.view(), other.view()
	var scratch [2 * inlineCap]Tag
	var out []Tag
	if m := min(len(a), len(b)); m <= len(scratch) {
		out = scratch[:0]
	} else {
		out = make([]Tag, 0, m)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return labelCopy(out)
}

// Minus returns the set difference l − other.
func (l Label) Minus(other Label) Label {
	if l.IsEmpty() || other.IsEmpty() {
		return l
	}
	a := l.view()
	var scratch [2 * inlineCap]Tag
	var out []Tag
	if len(a) <= len(scratch) {
		out = scratch[:0]
	} else {
		out = make([]Tag, 0, len(a))
	}
	for _, t := range a {
		if !other.Has(t) {
			out = append(out, t)
		}
	}
	return labelCopy(out)
}

// Add returns a new label that also contains t.
func (l Label) Add(t Tag) Label {
	if t == InvalidTag || l.Has(t) {
		return l
	}
	return l.Union(NewLabel(t))
}

// Remove returns a new label without t.
func (l Label) Remove(t Tag) Label {
	if !l.Has(t) {
		return l
	}
	return l.Minus(NewLabel(t))
}

// String renders the label as {t1,t2,...}; the empty label renders as {}.
func (l Label) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range l.view() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
