package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAllClear(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	for i := 0; i < 130; i++ {
		if s.Test(i) {
			t.Fatalf("bit %d set in new set", i)
		}
	}
}

func TestSetClearTest(t *testing.T) {
	s := New(100)
	for _, i := range []int{0, 1, 63, 64, 65, 99} {
		s.Set(i)
		if !s.Test(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if got := s.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Error("bit 64 still set after Clear")
	}
	if got := s.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
}

func TestRangeOps(t *testing.T) {
	s := New(200)
	s.SetRange(10, 150)
	if got := s.Count(); got != 140 {
		t.Fatalf("Count after SetRange = %d, want 140", got)
	}
	if !s.TestRange(10, 150) {
		t.Error("TestRange(10,150) = false, want true")
	}
	if s.TestRange(9, 150) {
		t.Error("TestRange(9,150) = true, want false")
	}
	if !s.TestRange(20, 20) {
		t.Error("empty TestRange should be true")
	}
	s.ClearRange(50, 60)
	if got := s.CountRange(10, 150); got != 130 {
		t.Fatalf("CountRange = %d, want 130", got)
	}
	if s.TestRange(10, 150) {
		t.Error("TestRange over cleared hole should be false")
	}
}

func TestNextSetNextClear(t *testing.T) {
	s := New(300)
	s.Set(5)
	s.Set(64)
	s.Set(299)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {65, 299}, {299, 299},
	}
	for _, c := range cases {
		if got := s.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	full := New(130)
	full.SetRange(0, 130)
	if got := full.NextClear(0); got != -1 {
		t.Errorf("NextClear on full = %d, want -1", got)
	}
	full.Clear(129)
	if got := full.NextClear(0); got != 129 {
		t.Errorf("NextClear = %d, want 129", got)
	}
	if got := s.NextSet(300); got != -1 {
		t.Errorf("NextSet past end = %d, want -1", got)
	}
}

func TestRunLengthAt(t *testing.T) {
	s := New(64)
	s.SetRange(10, 20)
	if got := s.RunLengthAt(10, 0); got != 10 {
		t.Errorf("RunLengthAt(10) = %d, want 10", got)
	}
	if got := s.RunLengthAt(15, 0); got != 5 {
		t.Errorf("RunLengthAt(15) = %d, want 5", got)
	}
	if got := s.RunLengthAt(10, 3); got != 3 {
		t.Errorf("RunLengthAt(10,max=3) = %d, want 3", got)
	}
	if got := s.RunLengthAt(9, 0); got != 0 {
		t.Errorf("RunLengthAt(9) = %d, want 0", got)
	}
}

// naiveRunLengthBefore is RunLengthBefore's reference: one Test per bit.
func naiveRunLengthBefore(s *Set, i, max int) int {
	n := 0
	for j := i - 1; j >= 0 && s.Test(j); j-- {
		n++
		if max > 0 && n == max {
			break
		}
	}
	return n
}

func TestRunLengthBefore(t *testing.T) {
	s := New(200)
	s.SetRange(10, 20)  // inside one word
	s.SetRange(60, 130) // spans words 0, 1 and 2
	s.SetRange(190, 200)
	cases := []struct{ i, max, want int }{
		{0, 0, 0},     // nothing below bit 0
		{10, 0, 0},    // bit 9 clear
		{20, 0, 10},   // whole run
		{15, 0, 5},    // partial run
		{20, 3, 3},    // capped
		{20, 1, 1},    // cap of one
		{64, 0, 4},    // the tail 60..63 of word 0
		{65, 0, 5},    // first bit of word 1 plus the tail of word 0
		{128, 0, 68},  // a whole all-ones word
		{130, 0, 70},  // all three words
		{130, 65, 65}, // cap past one word
		{130, 100, 70},
		{200, 0, 10}, // i == Len()
		{200, 7, 7},
	}
	for _, tc := range cases {
		if got := s.RunLengthBefore(tc.i, tc.max); got != tc.want {
			t.Errorf("RunLengthBefore(%d, %d) = %d, want %d", tc.i, tc.max, got, tc.want)
		}
	}
	// A clear bit exactly on a word boundary ends the run there, with
	// set bits on its other side.
	g := New(130)
	g.SetRange(0, 130)
	g.Clear(64)
	if got := g.RunLengthBefore(130, 0); got != 65 {
		t.Errorf("RunLengthBefore(130) over clear bit 64 = %d, want 65", got)
	}
	if got := g.RunLengthBefore(64, 0); got != 64 {
		t.Errorf("RunLengthBefore(64) = %d, want 64", got)
	}
}

// Property: RunLengthBefore agrees with a per-bit backward walk at
// every index (word boundaries and i == Len() included) and for caps
// of none, one, within a word and past a word.
func TestQuickRunLengthBeforeMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		s := New(n)
		// Long runs, so words fill completely and runs cross boundaries.
		for i := 0; i < n; {
			run := rng.Intn(150)
			if rng.Intn(2) == 0 {
				s.SetRange(i, min(i+run, n))
			}
			i += run + 1
		}
		// Single clear bits split long runs, some on word boundaries.
		for j := rng.Intn(4); j > 0; j-- {
			s.Clear(rng.Intn(n))
			if b := 64 * rng.Intn(n/64+1); b < n {
				s.Clear(b)
			}
		}
		for i := 0; i <= n; i++ {
			for _, max := range []int{0, 1, 5, 64, 65, 130} {
				if got, want := s.RunLengthBefore(i, max), naiveRunLengthBefore(s, i, max); got != want {
					t.Logf("n=%d i=%d max=%d: got %d want %d (%s)", n, i, max, got, want, s)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFindRun(t *testing.T) {
	s := New(100)
	s.SetRange(4, 6)   // run of 2
	s.SetRange(30, 37) // run of 7
	s.SetRange(90, 100)

	if got := s.FindRun(0, 100, 2); got != 4 {
		t.Errorf("FindRun len 2 = %d, want 4", got)
	}
	if got := s.FindRun(0, 100, 3); got != 30 {
		t.Errorf("FindRun len 3 = %d, want 30", got)
	}
	if got := s.FindRun(0, 100, 8); got != 90 {
		t.Errorf("FindRun len 8 = %d, want 90", got)
	}
	if got := s.FindRun(0, 100, 11); got != -1 {
		t.Errorf("FindRun len 11 = %d, want -1", got)
	}
	// A run may not extend past hi.
	if got := s.FindRun(0, 95, 8); got != -1 {
		t.Errorf("FindRun len 8 bounded at 95 = %d, want -1", got)
	}
}

func TestFindRunNearest(t *testing.T) {
	s := New(100)
	s.SetRange(10, 14)
	s.SetRange(60, 64)
	if got := s.FindRunNearest(0, 100, 4, 0); got != 10 {
		t.Errorf("nearest to 0 = %d, want 10", got)
	}
	if got := s.FindRunNearest(0, 100, 4, 99); got != 60 {
		t.Errorf("nearest to 99 = %d, want 60", got)
	}
	if got := s.FindRunNearest(0, 100, 4, 38); got != 60 {
		t.Errorf("nearest to 38 = %d, want 60 (dist 22 vs 28)", got)
	}
	if got := s.FindRunNearest(0, 100, 4, 30); got != 10 {
		t.Errorf("nearest to 30 = %d, want 10 (dist 20 vs 30)", got)
	}
	if got := s.FindRunNearest(0, 100, 5, 30); got != -1 {
		t.Errorf("nearest len 5 = %d, want -1", got)
	}
}

func TestCloneEqual(t *testing.T) {
	s := New(77)
	s.SetRange(3, 40)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Clear(10)
	if s.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
	if s.Test(10) != true {
		t.Fatal("mutating clone changed original")
	}
}

func TestString(t *testing.T) {
	s := New(8)
	s.Set(0)
	s.Set(7)
	if got := s.String(); got != "10000001" {
		t.Errorf("String = %q", got)
	}
	big := New(1000)
	if got := big.String(); got != "bitset{len=1000 set=0}" {
		t.Errorf("big String = %q", got)
	}
}

func TestPanics(t *testing.T) {
	s := New(10)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Test(-1)", func() { s.Test(-1) })
	mustPanic("Set(10)", func() { s.Set(10) })
	mustPanic("SetRange bad", func() { s.SetRange(5, 3) })
	mustPanic("FindRun len 0", func() { s.FindRun(0, 10, 0) })
	mustPanic("RunLengthBefore(11)", func() { s.RunLengthBefore(11, 0) })
	mustPanic("RunLengthBefore(-1)", func() { s.RunLengthBefore(-1, 0) })
	mustPanic("New(-1)", func() { New(-1) })
}

// Property: Count equals the number of indices where Test is true, under
// any random sequence of Set/Clear operations.
func TestQuickCountConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		s := New(n)
		ref := make([]bool, n)
		for op := 0; op < 300; op++ {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				s.Set(i)
				ref[i] = true
			} else {
				s.Clear(i)
				ref[i] = false
			}
		}
		want := 0
		for i, b := range ref {
			if s.Test(i) != b {
				return false
			}
			if b {
				want++
			}
		}
		return s.Count() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: FindRun returns a genuine run of set bits within bounds, and
// -1 only when no such run exists (verified against a naive scan).
func TestQuickFindRunMatchesNaive(t *testing.T) {
	naive := func(s *Set, lo, hi, length int) int {
		for i := lo; i+length <= hi; i++ {
			ok := true
			for j := i; j < i+length; j++ {
				if !s.Test(j) {
					ok = false
					break
				}
			}
			if ok {
				return i
			}
		}
		return -1
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(400)
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				s.Set(i)
			}
		}
		length := 1 + rng.Intn(9)
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		return s.FindRun(lo, hi, length) == naive(s, lo, hi, length)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: NextSet/NextClear agree with naive scans.
func TestQuickNextMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Set(i)
			}
		}
		from := rng.Intn(n + 2)
		wantSet, wantClear := -1, -1
		for i := from; i < n; i++ {
			if wantSet < 0 && s.Test(i) {
				wantSet = i
			}
			if wantClear < 0 && !s.Test(i) {
				wantClear = i
			}
		}
		if from >= n {
			return s.NextSet(from) == -1 && s.NextClear(from) == -1
		}
		return s.NextSet(from) == wantSet && s.NextClear(from) == wantClear
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNextSetAnyMatchesMin checks NextSetAny against the smallest
// NextSet of its sets: sparse sets of lengths across word boundaries,
// from every kind of start, with empty sets and no sets mixed in.
func TestQuickNextSetAnyMatchesMin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		sets := make([]*Set, rng.Intn(5))
		for k := range sets {
			sets[k] = New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(40) == 0 {
					sets[k].Set(i)
				}
			}
		}
		from := rng.Intn(n+3) - 1
		want := -1
		for _, s := range sets {
			if i := s.NextSet(from); i >= 0 && (want < 0 || i < want) {
				want = i
			}
		}
		return NextSetAny(sets, from) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// bitwiseFindRun is the pre-optimization bit-by-bit reference: NextSet
// to a candidate, then one Test per bit of the run. The benchmarks
// below compare it against the word-wise FindRun on the allocator's
// worst case, a mostly-set map.
func bitwiseFindRun(s *Set, lo, hi, length int) int {
	i := lo
	for {
		i = s.NextSet(i)
		if i < 0 || i+length > hi {
			return -1
		}
		run := 1
		for run < length && s.Test(i+run) {
			run++
		}
		if run >= length {
			return i
		}
		i += run
	}
}

// denseMap returns an n-bit map with fill of its bits set: long runs of
// set bits punctuated by single clear bits — the shape of a
// cylinder-group free map on a mostly-free (or, inverted, mostly-full)
// disk, where run searches must wade through all-ones words.
func denseMap(n int, fill float64) *Set {
	s := New(n)
	s.SetRange(0, n)
	gap := int(1 / (1 - fill))
	for i := gap - 1; i < n; i += gap {
		s.Clear(i)
	}
	return s
}

func TestRunLengthFromMatchesBitwise(t *testing.T) {
	s := denseMap(1024, 0.9)
	// Also exercise word boundaries explicitly.
	s.ClearRange(300, 320)
	s.SetRange(64, 192)
	for i := 0; i < s.Len(); i++ {
		want := 0
		for j := i; j < s.Len() && s.Test(j); j++ {
			want++
		}
		if !s.Test(i) {
			continue
		}
		if got := s.RunLengthAt(i, 0); got != want {
			t.Fatalf("RunLengthAt(%d) = %d, want %d", i, got, want)
		}
		if got := s.RunLengthAt(i, 5); got != min(want, 5) {
			t.Fatalf("RunLengthAt(%d, max 5) = %d, want %d", i, got, min(want, 5))
		}
	}
}

func TestFindRunDenseMatchesBitwise(t *testing.T) {
	s := denseMap(4096, 0.9)
	for _, length := range []int{1, 2, 7, 9, 63, 64, 65, 200} {
		for lo := 0; lo < 256; lo += 37 {
			want := bitwiseFindRun(s, lo, s.Len(), length)
			if got := s.FindRun(lo, s.Len(), length); got != want {
				t.Fatalf("FindRun(%d, n, %d) = %d, want %d", lo, length, got, want)
			}
		}
	}
}

// BenchmarkFindRunDense measures FindRun on a 90%-set map searching
// for a run longer than any present (the worst case: the whole map is
// scanned). The word-wise scan covers all-ones words 64 bits at a
// time; BenchmarkFindRunDenseBitwise is the old per-bit reference.
func BenchmarkFindRunDense(b *testing.B) {
	s := denseMap(1<<20, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.FindRun(0, s.Len(), 64) != -1 {
			b.Fatal("unexpected run")
		}
	}
	b.SetBytes(int64(s.Len() / 8))
}

func BenchmarkFindRunDenseBitwise(b *testing.B) {
	s := denseMap(1<<20, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bitwiseFindRun(s, 0, s.Len(), 64) != -1 {
			b.Fatal("unexpected run")
		}
	}
	b.SetBytes(int64(s.Len() / 8))
}

// BenchmarkFindRunNearestDense exercises the preference search the
// realloc policy's cluster allocator performs on a fragmented group.
func BenchmarkFindRunNearestDense(b *testing.B) {
	s := denseMap(1<<18, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FindRunNearest(0, s.Len(), 8, s.Len()/2)
	}
}
