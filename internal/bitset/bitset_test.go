package bitset

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// members lists the set bits of s over [0, n) in ascending order.
func members(s *Set, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

func TestBasicOps(t *testing.T) {
	s := New(130)
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if got := members(s, 130); len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 129 {
		t.Fatalf("members = %v, want [0 64 129]", got)
	}
	s.Clear(64)
	if s.Has(64) || len(members(s, 130)) != 2 {
		t.Error("Clear failed")
	}
	s.Reset()
	if got := members(s, 130); len(got) != 0 {
		t.Errorf("members after Reset = %v", got)
	}
}

func TestQuickSetSemantics(t *testing.T) {
	// Compare against a map-based reference implementation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		s := New(n)
		ref := map[int]bool{}
		for op := 0; op < 100; op++ {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				s.Set(i)
				ref[i] = true
			} else {
				s.Clear(i)
				delete(ref, i)
			}
		}
		for i := 0; i < n; i++ {
			if s.Has(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendKeyMatchesKey holds AppendKey to the property the exact
// solver's memo needs: two sets of one capacity encode identically exactly
// when they hold the same members (the reference key is the member list).
func TestAppendKeyMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 150
	byBin, byRef := map[string]string{}, map[string]string{}
	for trial := 0; trial < 400; trial++ {
		s := New(n)
		// Few candidate bits, so equal sets do recur across trials.
		for _, i := range []int{0, 63, 64, 149} {
			if rng.Intn(2) == 0 {
				s.Set(i)
			}
		}
		if trial%2 == 0 {
			s.Set(rng.Intn(n))
		}
		bin, ref := string(s.AppendKey(nil)), fmt.Sprint(members(s, n))
		if prev, ok := byBin[bin]; ok && prev != ref {
			t.Fatalf("AppendKey collided: %s and %s share %q", prev, ref, bin)
		}
		if prev, ok := byRef[ref]; ok && prev != bin {
			t.Fatalf("equal sets %s encoded as %q and %q", ref, prev, bin)
		}
		byBin[bin], byRef[ref] = ref, bin
	}
	// Reusing a buffer must not corrupt earlier contents semantics.
	s := New(70)
	s.Set(69)
	buf := make([]byte, 0, 64)
	first := string(s.AppendKey(buf[:0]))
	s.Clear(69)
	s.Set(0)
	second := string(s.AppendKey(buf[:0]))
	if first == second {
		t.Fatal("distinct sets encoded identically")
	}
}
