package ffs

import (
	"fmt"
	"math/rand"
	"testing"

	"ffsage/internal/bitset"
)

// carveRuns allocates every data block of group cg and then frees the
// given (start, len) block runs, leaving a free map whose runs are
// exactly the ones listed.
func carveRuns(t *testing.T, c *CylGroup, runs [][2]int) {
	t.Helper()
	fpb := c.fs.fpb
	c.mutateFrags(c.DataStart(), c.nfrags, true)
	for _, r := range runs {
		c.mutateFrags(r[0]*fpb, (r[0]+r[1])*fpb, false)
	}
}

func TestFindFreeRunDisciplines(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(1)
	ds := c.DataStart() / fs.fpb
	// Runs: len 3, 7, 2, 4, 2, 7 — separated so none merge.
	carveRuns(t, c, [][2]int{
		{ds + 2, 3}, {ds + 10, 7}, {ds + 20, 2}, {ds + 30, 4}, {ds + 40, 2}, {ds + 50, 7},
	})
	cases := []struct {
		n    int
		fit  RunFit
		want int
	}{
		{2, ChainFit, ds + 2},    // first run with room to spare
		{3, ChainFit, ds + 10},   // the len-3 run leaves no room; skip it
		{7, ChainFit, ds + 10},   // no run longer than 7: first exact fit
		{2, FirstFit, ds + 2},    // first run with ≥ 2
		{2, BestFit, ds + 20},    // exact fit beats the earlier len-3 run
		{2, LargestFit, ds + 10}, // earliest of the two len-7 runs
		{4, FirstFit, ds + 10},
		{4, BestFit, ds + 30}, // exact fit
		{5, BestFit, ds + 10}, // only the len-7 runs qualify; earliest wins
		{7, FirstFit, ds + 10},
		{7, BestFit, ds + 10},
		{7, LargestFit, ds + 10},
	}
	for _, tc := range cases {
		if got := c.FindFreeRun(tc.n, tc.fit); got != tc.want {
			t.Errorf("FindFreeRun(%d, %v) = %d, want %d", tc.n, tc.fit, got, tc.want)
		}
	}
}

func TestFindFreeRunExhausted(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(1)
	ds := c.DataStart() / fs.fpb
	carveRuns(t, c, [][2]int{{ds + 2, 3}, {ds + 8, 4}})
	for _, fit := range []RunFit{ChainFit, FirstFit, BestFit, LargestFit} {
		if got := c.FindFreeRun(5, fit); got != -1 {
			t.Errorf("FindFreeRun(5, %v) = %d, want -1", fit, got)
		}
	}
}

func TestFreeRunLenAt(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(1)
	ds := c.DataStart() / fs.fpb
	carveRuns(t, c, [][2]int{{ds + 10, 7}})
	if got := c.FreeRunLenAt(ds+10, 100); got != 7 {
		t.Errorf("FreeRunLenAt(full) = %d, want 7", got)
	}
	if got := c.FreeRunLenAt(ds+12, 100); got != 5 {
		t.Errorf("FreeRunLenAt(mid) = %d, want 5", got)
	}
	if got := c.FreeRunLenAt(ds+10, 3); got != 3 {
		t.Errorf("FreeRunLenAt(capped) = %d, want 3", got)
	}
	if got := c.FreeRunLenAt(ds, 5); got != 0 {
		t.Errorf("FreeRunLenAt(allocated) = %d, want 0", got)
	}
	if got := c.FreeRunLenAt(-1, 5); got != 0 {
		t.Errorf("FreeRunLenAt(-1) = %d, want 0", got)
	}
	if got := c.FreeRunLenAt(c.NBlocks(), 5); got != 0 {
		t.Errorf("FreeRunLenAt(past end) = %d, want 0", got)
	}
	for _, max := range []int{0, -1} {
		if got := c.FreeRunLenAt(ds+10, max); got != 0 {
			t.Errorf("FreeRunLenAt(free, max %d) = %d, want 0", max, got)
		}
	}
}

func TestFreeRunLenAtGroupEnd(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(1)
	end := c.NBlocks()
	carveRuns(t, c, [][2]int{{end - 5, 5}})
	// The run ends at the group's last block.
	if got := c.FreeRunLenAt(end-5, 100); got != 5 {
		t.Errorf("FreeRunLenAt(run to group end) = %d, want 5", got)
	}
	if got := c.FreeRunLenAt(end-1, 100); got != 1 {
		t.Errorf("FreeRunLenAt(last block) = %d, want 1", got)
	}
	if got := fs.FreeRunAfter(fs.BlockAddr(1, end-1), 100); got != 0 {
		t.Errorf("FreeRunAfter(last block) = %d, want 0", got)
	}
}

func TestBlockAddrAndFreeRunAfter(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(1)
	ds := c.DataStart() / fs.fpb
	carveRuns(t, c, [][2]int{{ds + 2, 3}})
	if got := fs.BlockAddr(1, 0); got != fs.CgStart(1) {
		t.Errorf("BlockAddr(1,0) = %d, want group start %d", got, fs.CgStart(1))
	}
	addr := fs.BlockAddr(1, ds+2)
	if got := fs.CgIndexOfAddr(addr); got != 1 {
		t.Errorf("CgIndexOfAddr = %d, want 1", got)
	}
	// Two free blocks follow the first block of the run.
	if got := fs.FreeRunAfter(addr, 100); got != 2 {
		t.Errorf("FreeRunAfter(run head) = %d, want 2", got)
	}
	if got := fs.FreeRunAfter(fs.BlockAddr(1, ds+4), 100); got != 0 {
		t.Errorf("FreeRunAfter(run tail) = %d, want 0", got)
	}
	if got := fs.FreeRunAfter(addr, 1); got != 1 {
		t.Errorf("FreeRunAfter(capped) = %d, want 1", got)
	}
}

// linearFindFreeRun is FindFreeRun as it was before the clusterRuns
// index, kept as the differential oracle: walk every free run of the
// group from block 0 and pick by discipline. It reads only the block
// free map, never a summary, and returns -1 when no run has n blocks.
func linearFindFreeRun(c *CylGroup, n int, fit RunFit) int {
	if fit == FirstFit {
		return c.blkfree.FindRun(0, c.nblk, n)
	}
	best, bestLen := -1, 0
	for b := 0; ; {
		start := c.blkfree.NextSet(b)
		if start < 0 {
			break
		}
		length := c.blkfree.RunLengthAt(start, 0)
		b = start + length
		if length < n {
			continue
		}
		switch fit {
		case ChainFit:
			if length > n {
				return start
			}
			if best < 0 {
				best = start
			}
		case BestFit:
			if best < 0 || length < bestLen {
				best, bestLen = start, length
			}
		case LargestFit:
			if length > bestLen {
				best, bestLen = start, length
			}
		}
	}
	return best
}

// freeRunsAgree compares every discipline and every n in [1, maxcontig]
// against the linear walk, then checks the group's summaries (the
// clusterRuns index included) against a rescan.
func freeRunsAgree(c *CylGroup) error {
	for _, fit := range []RunFit{ChainFit, FirstFit, BestFit, LargestFit} {
		for n := 1; n <= c.fs.P.MaxContig; n++ {
			if got, want := c.FindFreeRun(n, fit), linearFindFreeRun(c, n, fit); got != want {
				return fmt.Errorf("cg %d: FindFreeRun(%d, %v) = %d, linear walk %d", c.Index, n, fit, got, want)
			}
		}
	}
	return c.summaryDrift(c.recomputeSummary())
}

// longRunTies reports whether the group holds two runs longer than
// maxcontig of the same length, the case where BestFit and LargestFit
// must measure and break a tie.
func longRunTies(c *CylGroup) bool {
	seen := map[int]bool{}
	runs := c.clusterRuns[c.fs.P.MaxContig+1]
	for b := runs.NextSet(0); b >= 0; {
		n := c.blkfree.RunLengthAt(b, 0)
		if seen[n] {
			return true
		}
		seen[n] = true
		b = runs.NextSet(b + n)
	}
	return false
}

// TestFindFreeRunMatchesLinearScan drives random block-run allocations
// and frees, plus fragment allocations that split blocks, through small
// groups at several maxcontig values. Runs are longer than maxcontig,
// start at the first data block, end at the group's last block, and tie
// in length. After every step each discipline and cluster size must
// pick what the old linear walk picks, and Check must pass, so the
// clusterRuns index changes the cost of the search and nothing else.
func TestFindFreeRunMatchesLinearScan(t *testing.T) {
	for _, maxContig := range []int{1, 3, 7} {
		p := smallParams()
		p.SizeBytes = 4 << 20
		p.MaxContig = maxContig
		var longRuns, firstRuns, endRuns, ties, fragSplits int
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			fs, err := NewFileSystem(p, nopPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			c := fs.cgs[rng.Intn(len(fs.cgs))]
			fpb, first := fs.fpb, c.DataStart()/fs.fpb
			type alloc struct{ lo, hi int } // fragment range
			var live []alloc
			for step := 0; step < 400; step++ {
				full := 1 - float64(c.FreeFrags())/float64(c.nfrags)
				switch r := rng.Float64(); {
				case len(live) > 0 && r < 0.55*full:
					// Free a whole allocation or a block-aligned piece.
					k := rng.Intn(len(live))
					a := live[k]
					lo, hi := a.lo, a.hi
					if nb := (hi - lo) / fpb; nb > 1 && rng.Intn(2) == 0 {
						lo += rng.Intn(nb) * fpb
						hi = lo + (1+rng.Intn((a.hi-lo)/fpb))*fpb
					}
					c.freeFrags(lo, hi-lo)
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					if a.lo < lo {
						live = append(live, alloc{a.lo, lo})
					}
					if hi < a.hi {
						live = append(live, alloc{hi, a.hi})
					}
				case r < 0.85:
					want := 1 + rng.Intn(3*maxContig)
					var b0, n int
					switch rng.Intn(4) {
					case 0:
						b0 = first
						n = c.blkfree.RunLengthAt(b0, want)
					case 1:
						n = c.blkfree.RunLengthBefore(c.nblk, want)
						b0 = c.nblk - n
					default:
						b0 = first + rng.Intn(c.nblk-first)
						n = c.blkfree.RunLengthAt(b0, want)
					}
					if n == 0 {
						continue
					}
					c.mutateFrags(b0*fpb, (b0+n)*fpb, true)
					live = append(live, alloc{b0 * fpb, (b0 + n) * fpb})
					if n > maxContig {
						longRuns++
					}
					if b0 == first {
						firstRuns++
					}
					if b0+n == c.nblk {
						endRuns++
					}
				default:
					// A fragment allocation may split a free block,
					// shortening a run through the pattern path.
					before, n := c.nbfree, 1+rng.Intn(fpb-1)
					if idx := c.allocFrags(n, rng.Intn(c.nfrags)); idx >= 0 {
						live = append(live, alloc{idx, idx + n})
						if c.nbfree < before {
							fragSplits++
						}
					}
				}
				if longRunTies(c) {
					ties++
				}
				if err := freeRunsAgree(c); err != nil {
					t.Fatalf("maxcontig %d seed %d step %d: %v", maxContig, seed, step, err)
				}
			}
			// The raw allocations belong to no file; with them released
			// the whole image must be Check-clean.
			for _, a := range live {
				c.freeFrags(a.lo, a.hi-a.lo)
			}
			if err := fs.Check(); err != nil {
				t.Fatalf("maxcontig %d seed %d: %v", maxContig, seed, err)
			}
		}
		if longRuns == 0 || firstRuns == 0 || endRuns == 0 || ties == 0 || fragSplits == 0 {
			t.Errorf("maxcontig %d: coverage long=%d first=%d end=%d ties=%d splits=%d, want all > 0",
				maxContig, longRuns, firstRuns, endRuns, ties, fragSplits)
		}
	}
}

// FuzzFreeRunIndex decodes the input into block-range allocations and
// frees on a tiny two-group file system. After each one the clusterRuns
// index must answer every search as the linear walk does, and the
// group's summaries must equal a rescan.
func FuzzFreeRunIndex(f *testing.F) {
	f.Add([]byte{0, 3, 9, 1, 5, 2, 0, 40, 20, 1, 3, 9})
	f.Add([]byte{2, 0, 255, 3, 63, 1, 2, 10, 30, 1, 12, 4, 1, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := smallParams()
		p.SizeBytes = 1 << 20
		p.NumCg = 2
		p.MaxContig = 4
		fs, err := NewFileSystem(p, nopPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		fpb := fs.fpb
		// ours marks the blocks the input allocated, so a free never
		// touches the metadata area.
		ours := []*bitset.Set{bitset.New(fs.cgs[0].nblk), bitset.New(fs.cgs[1].nblk)}
		for i := 0; i+2 < len(data); i += 3 {
			g := int(data[i]>>1) % len(fs.cgs)
			c := fs.cgs[g]
			b0 := int(data[i+1]) % c.nblk
			want := 1 + int(data[i+2])%(3*p.MaxContig)
			if data[i]&1 == 0 {
				if n := c.blkfree.RunLengthAt(b0, want); n > 0 {
					c.mutateFrags(b0*fpb, (b0+n)*fpb, true)
					ours[g].SetRange(b0, b0+n)
				}
			} else if n := ours[g].RunLengthAt(b0, want); n > 0 {
				c.freeFrags(b0*fpb, n*fpb)
				ours[g].ClearRange(b0, b0+n)
			}
			if err := freeRunsAgree(c); err != nil {
				t.Fatal(err)
			}
		}
		// The raw allocations belong to no file; with them released the
		// whole image must be Check-clean.
		for g, c := range fs.cgs {
			for b := ours[g].NextSet(0); b >= 0; b = ours[g].NextSet(b + 1) {
				c.freeFrags(b*fpb, fpb)
			}
		}
		if err := fs.Check(); err != nil {
			t.Fatal(err)
		}
	})
}
