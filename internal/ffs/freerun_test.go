package ffs

import "testing"

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
