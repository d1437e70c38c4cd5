package difc

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// genLabel draws a random small label. Tag values are kept in a narrow
// range so random pairs overlap often enough to exercise both subset
// outcomes.
func genLabel(r *rand.Rand) Label {
	n := r.Intn(6)
	tags := make([]Tag, 0, n)
	for i := 0; i < n; i++ {
		tags = append(tags, Tag(1+r.Intn(12)))
	}
	return NewLabel(tags...)
}

func genLabels(r *rand.Rand) Labels {
	return Labels{S: genLabel(r), I: genLabel(r)}
}

// TestCachedSubsetMatchesUncached: SubsetOf over interned operands
// answers exactly what the map-based reference does for the same tag
// sets — the id an operand carries never enters the decision.
func TestCachedSubsetMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewSource(*difcSeed))
	prop := func() bool {
		a, b := genLabel(r), genLabel(r)
		ia, ib := Intern(a), Intern(b)
		want := refSubset(a, b)
		if ia.SubsetOf(ib) != want {
			t.Logf("mismatch: %v ⊆ %v want %v", a, b, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(t, 400)); err != nil {
		t.Fatal(err)
	}
}

// TestCachedCanFlowToMatchesUncached lifts the property to the full
// CanFlowTo relation over interned label pairs.
func TestCachedCanFlowToMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewSource(*difcSeed + 1))
	prop := func() bool {
		src, dst := genLabels(r), genLabels(r)
		want := refSubset(src.S, dst.S) && refSubset(dst.I, src.I)
		isrc, idst := InternLabels(src), InternLabels(dst)
		if isrc.CanFlowTo(idst) != want {
			return false
		}
		// CheckFlow must agree with CanFlowTo on the same interned pairs.
		err := CheckFlow("test", isrc, idst)
		return (err == nil) == want
	}
	if err := quick.Check(prop, quickCfg(t, 400)); err != nil {
		t.Fatal(err)
	}
}

// TestInternPreservesSemantics: interning must be observably invisible —
// equality, ordering (subset), membership, rendering and derived-label
// operations all agree between a label and its interned twin.
func TestInternPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(*difcSeed + 2))
	prop := func() bool {
		a, b := genLabel(r), genLabel(r)
		ia, ib := Intern(a), Intern(b)
		if !ia.Interned() || !ib.Interned() {
			return false
		}
		// Identity: same tags, same rendering.
		if !ia.Equal(a) || ia.String() != a.String() || ia.Len() != a.Len() {
			return false
		}
		// Equality agrees in every interned/uninterned combination.
		want := a.Equal(b)
		if ia.Equal(ib) != want || ia.Equal(b) != want || a.Equal(ib) != want {
			return false
		}
		// Ordering (the lattice partial order) agrees likewise.
		ws, wr := a.SubsetOf(b), b.SubsetOf(a)
		if ia.SubsetOf(ib) != ws || ia.SubsetOf(b) != ws || a.SubsetOf(ib) != ws {
			return false
		}
		if ib.SubsetOf(ia) != wr {
			return false
		}
		// Derived labels are tag-identical regardless of interning.
		if !ia.Union(ib).Equal(a.Union(b)) || !ia.Meet(ib).Equal(a.Meet(b)) || !ia.Minus(ib).Equal(a.Minus(b)) {
			return false
		}
		// Canonical ids: re-interning equal labels yields the same id.
		ia2 := Intern(NewLabel(a.Tags()...))
		return (ia2.id == ia.id) == true && (ia.id == ib.id) == want
	}
	if err := quick.Check(prop, quickCfg(t, 400)); err != nil {
		t.Fatal(err)
	}
}

// TestInternEmptyLabel pins the reserved empty-label id and its lattice
// bottom behaviour.
func TestInternEmptyLabel(t *testing.T) {
	e := Intern(Label{})
	if e.id != emptyInternID || !e.IsEmpty() {
		t.Fatalf("empty label interned as id=%d empty=%v", e.id, e.IsEmpty())
	}
	if e2 := Intern(NewLabel()); e2.id != emptyInternID {
		t.Fatalf("second empty intern got id %d", e2.id)
	}
	l := Intern(NewLabel(3, 4))
	if !e.SubsetOf(l) || l.SubsetOf(e) {
		t.Fatal("empty label is not behaving as lattice bottom")
	}
}

// TestInternTableBoundedDegradation: when a shard refuses new entries
// the label comes back un-interned but otherwise intact.
func TestInternTableBoundedDegradation(t *testing.T) {
	l := NewLabel(7, 8, 9)
	sh := internShardFor([]Tag{7, 8, 9})
	sh.mu.Lock()
	saved := sh.m
	full := make(map[string]uint64, maxInternedPerShard)
	for i := 0; len(full) < maxInternedPerShard; i++ {
		full[internKey([]Tag{Tag(i + 1), ^Tag(i)})] = uint64(i + 1000)
	}
	sh.m = full
	sh.mu.Unlock()
	defer func() {
		sh.mu.Lock()
		sh.m = saved
		sh.mu.Unlock()
	}()

	got := Intern(l)
	if got.Interned() {
		t.Fatal("full shard still admitted a label")
	}
	if !got.Equal(l) || got.String() != l.String() {
		t.Fatal("degraded intern changed the label")
	}
	if !sort.SliceIsSorted(got.Tags(), func(i, j int) bool { return got.Tags()[i] < got.Tags()[j] }) {
		t.Fatal("degraded intern broke tag ordering")
	}
}

// TestInternConcurrent hammers intern+subset from many goroutines under
// -race: the global intern table must be safe without external locking.
func TestInternConcurrent(t *testing.T) {
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			r := rand.New(rand.NewSource(*difcSeed + int64(w)))
			for i := 0; i < 2000; i++ {
				a, b := Intern(genLabel(r)), Intern(genLabel(r))
				if a.SubsetOf(b) != refSubset(a, b) {
					t.Errorf("worker %d: interned subset diverged", w)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}
