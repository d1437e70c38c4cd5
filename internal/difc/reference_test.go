package difc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential testing: every optimized sorted-slice set operation is
// checked against a naive map-based reference model on random inputs.

type refSet map[Tag]bool

func toRef(l Label) refSet {
	m := make(refSet)
	for _, t := range l.Tags() {
		m[t] = true
	}
	return m
}

func refEqual(m refSet, l Label) bool {
	if len(m) != l.Len() {
		return false
	}
	for t := range m {
		if !l.Has(t) {
			return false
		}
	}
	return true
}

// refSubset is the reference model of a ⊆ b.
func refSubset(a, b Label) bool {
	bm := toRef(b)
	for t := range toRef(a) {
		if !bm[t] {
			return false
		}
	}
	return true
}

func TestDiffUnion(t *testing.T) {
	f := func(a, b Label) bool {
		want := toRef(a)
		for t := range toRef(b) {
			want[t] = true
		}
		return refEqual(want, a.Union(b))
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}

func TestDiffMeet(t *testing.T) {
	f := func(a, b Label) bool {
		bm := toRef(b)
		want := make(refSet)
		for t := range toRef(a) {
			if bm[t] {
				want[t] = true
			}
		}
		return refEqual(want, a.Meet(b))
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}

func TestDiffMinus(t *testing.T) {
	f := func(a, b Label) bool {
		bm := toRef(b)
		want := make(refSet)
		for t := range toRef(a) {
			if !bm[t] {
				want[t] = true
			}
		}
		return refEqual(want, a.Minus(b))
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}

func TestDiffSubsetOf(t *testing.T) {
	f := func(a, b Label) bool {
		return refSubset(a, b) == a.SubsetOf(b)
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}

	// Large operands. The generator above draws at most 5 tags, so it
	// never pits a small label against a much larger one — the only case
	// the binary-search walk serves. Supersets of up to 200 tags have
	// gaps of at least 2 between tags, so a tag one above a member is
	// missing from inside the range. Candidate subsets are made by
	// removing tags from the superset (sizes random and at the
	// searchRatio cutoff ±1) and then perturbing one tag to a value
	// below, inside or above the superset's range. Each pair is checked
	// in both directions across inline and heap twins.
	r := rand.New(rand.NewSource(*difcSeed))
	check := func(a, b []Tag) {
		t.Helper()
		for _, x := range []Label{NewLabel(a...), newLabelHeap(a...)} {
			for _, y := range []Label{NewLabel(b...), newLabelHeap(b...)} {
				if got, want := x.SubsetOf(y), refSubset(x, y); got != want {
					t.Fatalf("%v ⊆ %v = %v, reference says %v", x, y, got, want)
				}
				if got, want := y.SubsetOf(x), refSubset(y, x); got != want {
					t.Fatalf("%v ⊆ %v = %v, reference says %v", y, x, got, want)
				}
			}
		}
	}
	for iter := 0; iter < 300; iter++ {
		nb := 1 + r.Intn(200)
		super := make([]Tag, nb)
		cur := Tag(10)
		for i := range super {
			cur += Tag(2 + r.Intn(3))
			super[i] = cur
		}
		cut := nb / searchRatio
		for _, na := range []int{r.Intn(nb + 1), cut - 1, cut, cut + 1} {
			if na < 0 || na > nb {
				continue
			}
			sub := make([]Tag, 0, na)
			for _, i := range r.Perm(nb)[:na] {
				sub = append(sub, super[i])
			}
			check(sub, super)
			if na == 0 {
				continue
			}
			inside := super[r.Intn(max(nb-1, 1))] + 1
			for _, miss := range []Tag{super[0] - 1, inside, super[nb-1] + 1} {
				bad := append([]Tag(nil), sub...)
				bad[r.Intn(na)] = miss
				check(bad, super)
			}
		}
	}
}

func TestDiffCanFlow(t *testing.T) {
	// Reference: brute-force the two subset conditions element-wise.
	f := func(x, y Labels) bool {
		want := true
		ym := toRef(y.S)
		for t := range toRef(x.S) {
			if !ym[t] {
				want = false
			}
		}
		xm := toRef(x.I)
		for t := range toRef(y.I) {
			if !xm[t] {
				want = false
			}
		}
		return want == x.CanFlowTo(y)
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}

func TestDiffCanChange(t *testing.T) {
	f := func(from, to Label, caps CapSet) bool {
		plus, minus := toRef(caps.Plus()), toRef(caps.Minus())
		fromM, toM := toRef(from), toRef(to)
		want := true
		for t := range toM {
			if !fromM[t] && !plus[t] {
				want = false
			}
		}
		for t := range fromM {
			if !toM[t] && !minus[t] {
				want = false
			}
		}
		return want == CanChange(from, to, caps)
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}

func TestDiffAddRemove(t *testing.T) {
	f := func(a Label, tag Tag) bool {
		if tag == InvalidTag {
			return true
		}
		want := toRef(a)
		want[tag] = true
		if !refEqual(want, a.Add(tag)) {
			return false
		}
		delete(want, tag)
		return refEqual(want, a.Add(tag).Remove(tag))
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}
