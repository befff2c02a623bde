package uid

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestNilUID(t *testing.T) {
	if !Nil.IsNil() {
		t.Fatal("Nil.IsNil() = false")
	}
	if Nil.String() != "nil" {
		t.Fatalf("Nil.String() = %q, want nil", Nil.String())
	}
	u := UID{Class: 3, Serial: 7}
	if u.IsNil() {
		t.Fatal("non-zero UID reported nil")
	}
	if got, want := u.String(), "3:7"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestGeneratorUnique(t *testing.T) {
	g := NewGenerator()
	seen := make(map[UID]bool)
	for i := 0; i < 1000; i++ {
		u := g.Next(ClassID(i % 5))
		if seen[u] {
			t.Fatalf("duplicate UID %v", u)
		}
		if u.IsNil() {
			t.Fatal("generator produced Nil")
		}
		seen[u] = true
	}
}

func TestGeneratorConcurrent(t *testing.T) {
	g := NewGenerator()
	const workers, per = 8, 500
	out := make(chan UID, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				out <- g.Next(1)
			}
		}()
	}
	wg.Wait()
	close(out)
	seen := make(map[UID]bool)
	for u := range out {
		if seen[u] {
			t.Fatalf("duplicate UID under concurrency: %v", u)
		}
		seen[u] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("got %d unique UIDs, want %d", len(seen), workers*per)
	}
}

func TestGeneratorSeed(t *testing.T) {
	g := NewGenerator()
	g.Seed(100)
	u := g.Next(1)
	if u.Serial <= 100 {
		t.Fatalf("after Seed(100), Next serial = %d, want > 100", u.Serial)
	}
	// Seeding backwards is a no-op.
	g.Seed(5)
	v := g.Next(1)
	if v.Serial <= u.Serial {
		t.Fatalf("Seed moved generator backwards: %d then %d", u.Serial, v.Serial)
	}
}

func TestLessTotalOrder(t *testing.T) {
	f := func(a, b UID) bool {
		switch {
		case a == b:
			return !a.Less(b) && !b.Less(a) && a.Compare(b) == 0
		case a.Less(b):
			return !b.Less(a) && a.Compare(b) == -1 && b.Compare(a) == 1
		default:
			return b.Less(a) && a.Compare(b) == 1
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLessTransitive(t *testing.T) {
	f := func(a, b, c UID) bool {
		if a.Less(b) && b.Less(c) {
			return a.Less(c)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetAddRemove(t *testing.T) {
	s := NewSet()
	a := UID{1, 1}
	b := UID{1, 2}
	c := UID{2, 1}
	if !s.Add(a) || !s.Add(b) || !s.Add(c) {
		t.Fatal("Add of fresh element returned false")
	}
	if s.Add(a) {
		t.Fatal("Add of duplicate returned true")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Contains(b) {
		t.Fatal("Contains(b) = false")
	}
	if !s.Remove(b) {
		t.Fatal("Remove(b) = false")
	}
	if s.Contains(b) {
		t.Fatal("Contains(b) after Remove = true")
	}
	if s.Remove(b) {
		t.Fatal("second Remove(b) = true")
	}
	got := s.Slice()
	want := []UID{a, c}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
}

func TestSetPreservesInsertionOrder(t *testing.T) {
	s := NewSet()
	var ins []UID
	for i := 10; i > 0; i-- {
		u := UID{1, uint64(i)}
		ins = append(ins, u)
		s.Add(u)
	}
	got := s.Slice()
	for i := range ins {
		if got[i] != ins[i] {
			t.Fatalf("order broken at %d: got %v want %v", i, got[i], ins[i])
		}
	}
	// Remove is swap-remove (O(1)): order is no longer guaranteed, but
	// membership and the index must stay consistent.
	s.Remove(ins[4])
	if s.Len() != 9 || s.Contains(ins[4]) {
		t.Fatal("Remove broke membership")
	}
	for i, u := range ins {
		if i == 4 {
			continue
		}
		if !s.Contains(u) {
			t.Fatalf("lost element %v after Remove", u)
		}
	}
	// Every slice element must be findable through Contains (index sync).
	for _, u := range s.Slice() {
		if !s.Contains(u) {
			t.Fatalf("slice element %v not in index", u)
		}
	}
}

func TestSetRemoveIsConstantTimeShape(t *testing.T) {
	// Removing all n elements must be ~O(n) total, not O(n²): verified
	// structurally — after removing the first half in insertion order,
	// the set holds exactly the other half.
	s := NewSet()
	const n = 1000
	for i := 0; i < n; i++ {
		s.Add(UID{1, uint64(i + 1)})
	}
	for i := 0; i < n/2; i++ {
		if !s.Remove(UID{1, uint64(i + 1)}) {
			t.Fatalf("Remove(%d) = false", i+1)
		}
	}
	if s.Len() != n/2 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := n / 2; i < n; i++ {
		if !s.Contains(UID{1, uint64(i + 1)}) {
			t.Fatalf("lost %d", i+1)
		}
	}
}

func TestSetZeroValue(t *testing.T) {
	var s Set
	if s.Contains(UID{1, 1}) {
		t.Fatal("zero Set contains element")
	}
	if s.Len() != 0 {
		t.Fatal("zero Set Len != 0")
	}
	s.Add(UID{1, 1})
	if !s.Contains(UID{1, 1}) {
		t.Fatal("Add on zero Set failed")
	}
}

func TestNilSetAccessors(t *testing.T) {
	var s *Set
	if s.Contains(UID{1, 1}) {
		t.Fatal("nil Set contains element")
	}
	if s.Len() != 0 {
		t.Fatal("nil Set Len != 0")
	}
	if s.Slice() != nil {
		t.Fatal("nil Set Slice != nil")
	}
}

func TestSetPropertyMirrorsMap(t *testing.T) {
	// Property: a Set behaves like a map[UID]bool under a random sequence
	// of adds and removes.
	f := func(ops []struct {
		U   UID
		Del bool
	}) bool {
		s := NewSet()
		m := make(map[UID]bool)
		for _, op := range ops {
			if op.Del {
				delete(m, op.U)
				s.Remove(op.U)
			} else {
				m[op.U] = true
				s.Add(op.U)
			}
		}
		if s.Len() != len(m) {
			return false
		}
		for u := range m {
			if !s.Contains(u) {
				return false
			}
		}
		// Slice must contain exactly the members, no duplicates.
		sl := append([]UID{}, s.Slice()...)
		sort.Slice(sl, func(i, j int) bool { return sl[i].Less(sl[j]) })
		for i := 1; i < len(sl); i++ {
			if sl[i] == sl[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalTextRoundTrip(t *testing.T) {
	for _, u := range []UID{Nil, {Class: 3, Serial: 7}, {Class: 4294967295, Serial: 18446744073709551615}} {
		b, err := u.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got UID
		if err := got.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if got != u {
			t.Fatalf("round trip %v -> %v", u, got)
		}
	}
	var u UID
	if err := u.UnmarshalText([]byte("garbage")); err == nil {
		t.Fatal("garbage unmarshaled")
	}
}

func TestGeneratorCurrent(t *testing.T) {
	g := NewGenerator()
	if g.Current() != 0 {
		t.Fatalf("fresh Current = %d", g.Current())
	}
	g.Next(1)
	g.Next(1)
	if g.Current() != 2 {
		t.Fatalf("Current = %d", g.Current())
	}
}

func TestStringMatchesFmtRendering(t *testing.T) {
	for _, u := range []UID{Nil, {1, 1}, {3, 7}, {0, 5}, {7, 0}, {1<<32 - 1, 1<<64 - 1}} {
		want := "nil"
		if !u.IsNil() {
			want = fmt.Sprintf("%d:%d", u.Class, u.Serial)
		}
		if got := u.String(); got != want {
			t.Errorf("String() = %q, fmt rendering %q", got, want)
		}
		if got := string(u.AppendText([]byte("#"))); got != "#"+want {
			t.Errorf("AppendText(#) = %q, want %q", got, "#"+want)
		}
	}
}
