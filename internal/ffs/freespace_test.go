package ffs

import "testing"

func TestFreeRunHistogram(t *testing.T) {
	fs := newSmallFs(t)
	hist, free := fs.FreeRunHistogram()
	if free != int(fs.FreeBlocksTotal()) {
		t.Errorf("free blocks %d, want %d", free, fs.FreeBlocksTotal())
	}
	// A fresh file system's free space is a handful of huge runs.
	if hist[7] == 0 || hist[1] != 0 {
		t.Errorf("fresh histogram = %v", hist)
	}
	// Punch single-block holes: allocate pairs, free one of each.
	c := fs.Cg(1)
	base := c.DataStart() / fs.fpb
	for i := 0; i < 10; i++ {
		c.allocBlocksAt(base+2*i, 1)
		c.allocBlocksAt(base+2*i+1, 1)
	}
	for i := 0; i < 10; i++ {
		c.freeFrags((base+2*i)*fs.fpb, fs.fpb)
	}
	hist2, _ := fs.FreeRunHistogram()
	if hist2[1] < 9 {
		t.Errorf("histogram after holes = %v, want ≥9 single runs", hist2)
	}
}

func TestCgUtilizations(t *testing.T) {
	fs := newSmallFs(t)
	u := fs.CgUtilizations()
	if len(u) != fs.NumCg() {
		t.Fatalf("%d entries", len(u))
	}
	for i, v := range u {
		if v < 0 || v > 1 {
			t.Errorf("cg %d utilization %v", i, v)
		}
	}
	// Fill one group and watch its utilization rise above the others.
	c := fs.Cg(2)
	for c.NBFree() > 0 {
		c.allocBlocksNear(-1, 1)
	}
	u2 := fs.CgUtilizations()
	if u2[2] < 0.9 {
		t.Errorf("filled group utilization %v", u2[2])
	}
	if u2[2] <= u2[1] {
		t.Errorf("filled group %v not above untouched %v", u2[2], u2[1])
	}
}
