package ffs

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// smallParams returns a compact file system for unit tests: 16 MB, 4
// groups, paper-like block/frag geometry.
func smallParams() Params {
	p := PaperParams()
	p.SizeBytes = 16 << 20
	p.NumCg = 4
	return p
}

type nopPolicy struct{}

func (nopPolicy) Name() string                              { return "nop" }
func (nopPolicy) FlushCluster(*FileSystem, *File, int, int) {}

func newSmallFs(t *testing.T) *FileSystem {
	t.Helper()
	fs, err := NewFileSystem(smallParams(), nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestNewFsInvariants(t *testing.T) {
	fs := newSmallFs(t)
	if err := fs.Check(); err != nil {
		t.Fatalf("fresh fs: %v", err)
	}
	if fs.NumCg() != 4 {
		t.Errorf("NumCg = %d", fs.NumCg())
	}
	if fs.Root() == nil || !fs.Root().IsDir {
		t.Fatal("no root directory")
	}
	// Root and the per-group metadata are the only consumers.
	if u := fs.Utilization(); u > 0.10 {
		t.Errorf("fresh utilization = %v, want small", u)
	}
}

func TestPaperParamsShape(t *testing.T) {
	p := PaperParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.FragsPerBlock() != 8 {
		t.Errorf("fpb = %d", p.FragsPerBlock())
	}
	if p.ClusterBytes() != 56<<10 {
		t.Errorf("cluster = %d, want 56KB", p.ClusterBytes())
	}
	if p.TotalFrags() != 502*1024 {
		t.Errorf("total frags = %d", p.TotalFrags())
	}
	fs, err := NewFileSystem(p, nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.SizeBytes = 0 },
		func(p *Params) { p.BlockSize = 0 },
		func(p *Params) { p.FragSize = 3000 },
		func(p *Params) { p.FragSize = p.BlockSize / 16 },
		func(p *Params) { p.NumCg = 0 },
		func(p *Params) { p.MaxContig = 0 },
		func(p *Params) { p.MaxBpg = 0 },
		func(p *Params) { p.MinFreePct = 100 },
		func(p *Params) { p.BytesPerInode = 16 },
		func(p *Params) { p.NumCg = 100000 },
	}
	for i, mutate := range bad {
		p := PaperParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad params validated", i)
		}
	}
}

func TestCgClusterAccounting(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(1) // untouched by root
	start := c.DataStart() / fs.fpb

	if !c.HasCluster(fs.P.MaxContig) {
		t.Fatal("fresh group has no maxcontig cluster")
	}
	// Allocate a block in the middle of the free expanse and watch the
	// summary split.
	mid := start + 20
	c.allocBlockAt(mid)
	if err := fs.checkGroups(); err != nil {
		t.Fatalf("after single block alloc: %v", err)
	}
	c.freeFrags(mid*fs.fpb, fs.fpb)
	if err := fs.checkGroups(); err != nil {
		t.Fatalf("after free: %v", err)
	}
}

func TestAllocBlockNearPrefersExact(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(2)
	want := c.DataStart()/fs.fpb + 5
	got := c.allocBlockNear(want * fs.fpb)
	if got != want {
		t.Errorf("allocBlockNear = block %d, want %d", got, want)
	}
	// Same preference again: taken, should give the next one forward.
	got2 := c.allocBlockNear(want * fs.fpb)
	if got2 != want+1 {
		t.Errorf("second allocBlockNear = %d, want %d", got2, want+1)
	}
}

func TestAllocBlockNearWraps(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(2)
	// Prefer the very last block; take it, then the next request with
	// the same preference must wrap to the front data area.
	last := c.nblk - 1
	if got := c.allocBlockNear(last * fs.fpb); got != last {
		t.Fatalf("got block %d, want %d", got, last)
	}
	got := c.allocBlockNear(last * fs.fpb)
	if got != c.DataStart()/fs.fpb {
		t.Errorf("wrap allocation = %d, want first data block %d", got, c.DataStart()/fs.fpb)
	}
}

func TestAllocFragsBestFit(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(3)
	// Split a block by taking 5 frags: leaves a free run of 3.
	idx := c.allocFrags(5, -1)
	if idx < 0 {
		t.Fatal("allocFrags failed on empty group")
	}
	if c.frsum[3] != 1 {
		t.Fatalf("frsum[3] = %d after 5-frag alloc, want 1", c.frsum[3])
	}
	// A 2-frag request must carve the existing 3-run (best fit), not
	// split another block.
	nb := c.nbfree
	idx2 := c.allocFrags(2, -1)
	if c.nbfree != nb {
		t.Error("2-frag alloc split a new block despite a free 3-run")
	}
	if idx2/fs.fpb != idx/fs.fpb {
		t.Errorf("2-frag alloc went to block %d, want %d", idx2/fs.fpb, idx/fs.fpb)
	}
	if c.frsum[3] != 0 || c.frsum[1] != 1 {
		t.Errorf("frsum after carve: [1]=%d [3]=%d, want 1,0", c.frsum[1], c.frsum[3])
	}
	if err := fs.checkGroups(); err != nil {
		t.Fatal(err)
	}
}

func TestExtendFrags(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(1)
	idx := c.allocFrags(2, -1)
	if !c.extendFrags(idx, 2, 5) {
		t.Fatal("extend 2→5 failed with free neighbours")
	}
	// Occupy the next fragment; further extension must fail.
	blocked := c.allocFrags(1, idx+5)
	if blocked != idx+5 {
		t.Fatalf("blocker landed at %d, want %d", blocked, idx+5)
	}
	if c.extendFrags(idx, 5, 6) {
		t.Error("extend into allocated fragment succeeded")
	}
	if err := fs.checkGroups(); err != nil {
		t.Fatal(err)
	}
}

func TestExtendFragsRejectsCrossBlock(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(1)
	idx := c.allocFrags(2, -1)
	// Place the run at the end of its block? Instead simulate by
	// computing a fragIdx near a boundary: take last 2 frags of a
	// block directly.
	b := c.DataStart()/fs.fpb + 3
	base := b*fs.fpb + fs.fpb - 2
	c.mutateFrags(base, base+2, true)
	if c.extendFrags(base, 2, 4) {
		t.Error("extension across block boundary succeeded")
	}
	_ = idx
}

func TestAllocCluster(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(2)
	start := c.DataStart() / fs.fpb
	// Exact preference honoured.
	b := c.allocCluster(start+10, 7)
	if b != start+10 {
		t.Errorf("cluster at %d, want %d", b, start+10)
	}
	// Preference occupied: the group-wide ChainFit search takes the
	// first run with room to spare — the 10 blocks in front.
	b2 := c.allocCluster(start+10, 3)
	if b2 != start {
		t.Errorf("fallback cluster at %d, want %d", b2, start)
	}
	if err := fs.checkGroups(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocClusterExhaustion(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(1)
	// Chop the whole group into runs of ≤2 by allocating every third
	// block.
	for b := c.DataStart() / fs.fpb; b < c.nblk; b += 3 {
		c.allocBlockAt(b)
	}
	if c.HasCluster(3) {
		t.Fatal("HasCluster(3) true after chopping")
	}
	if got := c.allocCluster(-1, 3); got != -1 {
		t.Errorf("allocCluster(3) = %d, want -1", got)
	}
	if got := c.allocCluster(-1, 2); got < 0 {
		t.Error("allocCluster(2) failed with 2-runs available")
	}
	if err := fs.checkGroups(); err != nil {
		t.Fatal(err)
	}
}

func TestInodeAllocFree(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(3)
	before := c.NIFree()
	i := c.allocInode()
	if i < 0 || c.NIFree() != before-1 {
		t.Fatalf("allocInode = %d, nifree %d", i, c.NIFree())
	}
	c.freeInode(i)
	if c.NIFree() != before {
		t.Errorf("nifree = %d after free, want %d", c.NIFree(), before)
	}
	defer func() {
		if recover() == nil {
			t.Error("double inode free did not panic")
		}
	}()
	c.freeInode(i)
}

func TestMutateFragsPanicsOnDoubleAlloc(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(1)
	idx := c.allocFrags(3, -1)
	defer func() {
		if recover() == nil {
			t.Error("double allocation did not panic")
		}
	}()
	c.mutateFrags(idx, idx+1, true)
}

func TestHashallocOrder(t *testing.T) {
	fs := newSmallFs(t)
	// Only accept group 3; preference 0 must still find it.
	got := fs.hashalloc(0, func(c *CylGroup) bool { return c.Index == 3 })
	if got != 3 {
		t.Errorf("hashalloc = %d, want 3", got)
	}
	// Nothing acceptable → -1.
	if got := fs.hashalloc(2, func(*CylGroup) bool { return false }); got != -1 {
		t.Errorf("hashalloc = %d, want -1", got)
	}
	// Preference honoured first.
	if got := fs.hashalloc(2, func(*CylGroup) bool { return true }); got != 2 {
		t.Errorf("hashalloc = %d, want 2", got)
	}
}

// Property: after any random sequence of block/frag allocations and
// frees, every cylinder-group summary matches a recomputation.
func TestQuickCgAccountingConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs, err := NewFileSystem(smallParams(), nopPolicy{})
		if err != nil {
			return false
		}
		c := fs.Cg(rng.Intn(4))
		type alloc struct{ idx, n int }
		var live []alloc
		for op := 0; op < 200; op++ {
			switch {
			case len(live) > 0 && rng.Intn(3) == 0:
				k := rng.Intn(len(live))
				c.freeFrags(live[k].idx, live[k].n)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			case rng.Intn(2) == 0:
				if b := c.allocBlockNear(rng.Intn(c.nfrags)); b >= 0 {
					live = append(live, alloc{b * fs.fpb, fs.fpb})
				}
			default:
				n := 1 + rng.Intn(fs.fpb-1)
				if idx := c.allocFrags(n, rng.Intn(c.nfrags)); idx >= 0 {
					live = append(live, alloc{idx, n})
				}
			}
		}
		return fs.checkGroups() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
