package ffs

import (
	"fmt"
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
	c.allocBlocksAt(mid, 1)
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
	got, _ := c.allocBlocksNear(want*fs.fpb, 1)
	if got != want {
		t.Errorf("allocBlocksNear = block %d, want %d", got, want)
	}
	// Same preference again: taken, should give the next one forward.
	got2, _ := c.allocBlocksNear(want*fs.fpb, 1)
	if got2 != want+1 {
		t.Errorf("second allocBlocksNear = %d, want %d", got2, want+1)
	}
}

func TestAllocBlockNearWraps(t *testing.T) {
	fs := newSmallFs(t)
	c := fs.Cg(2)
	// Prefer the very last block; take it, then the next request with
	// the same preference must wrap to the front data area.
	last := c.nblk - 1
	if got, n := c.allocBlocksNear(last*fs.fpb, fs.P.MaxContig); got != last || n != 1 {
		t.Fatalf("got blocks [%d,+%d), want [%d,+1): a run stops at the group's end", got, n, last)
	}
	got, _ := c.allocBlocksNear(last*fs.fpb, 1)
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
		c.allocBlocksAt(b, 1)
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
				if b, n := c.allocBlocksNear(rng.Intn(c.nfrags), 1+rng.Intn(fs.P.MaxContig+1)); b >= 0 {
					live = append(live, alloc{b * fs.fpb, n * fs.fpb})
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

// linearAllocFragsPick is the donor search allocFrags made before the
// fragRuns index existed, kept as the differential oracle: pick the
// smallest frsum bin ≥ n, then walk every block cyclically from the
// preference (or rotor), skipping full blocks, to the first one with a
// maximal run of exactly that size; with no such bin, walk the same
// way to the first free block and split it. It returns the fragment
// index allocFrags(n, prefFrag) must return, without allocating, and
// -2 when the summaries promise a run the map does not have.
func linearAllocFragsPick(c *CylGroup, n, prefFrag int) int {
	fpb := c.fs.fpb
	allocsiz := 0
	for k := n; k < fpb; k++ {
		if c.frsum[k] > 0 {
			allocsiz = k
			break
		}
	}
	if allocsiz == 0 {
		if c.nbfree == 0 {
			return -1
		}
		start := c.rotor / fpb
		if prefFrag >= 0 {
			start = prefFrag / fpb
			if start >= c.nblk {
				start = 0
			}
		}
		for i := 0; i < c.nblk; i++ {
			if b := (start + i) % c.nblk; c.blkfree.Test(b) {
				return b * fpb
			}
		}
		return -2
	}
	start := c.rotor / fpb
	if prefFrag >= 0 && prefFrag/fpb < c.nblk {
		start = prefFrag / fpb
	}
	for i := 0; i < c.nblk; i++ {
		b := (start + i) % c.nblk
		if c.blkfree.Test(b) || c.pattern(b).runs[allocsiz] == 0 {
			continue
		}
		return c.findRunInBlock(b, allocsiz)
	}
	return -2
}

// TestAllocFragsMatchesLinearScan drives random alloc/extend/free
// sequences through small groups at every fragment geometry and checks
// that each allocFrags pick equals the old linear scan's, so the
// fragRuns index changes the cost of the search and nothing else.
func TestAllocFragsMatchesLinearScan(t *testing.T) {
	for _, fpb := range []int{2, 4, 8} {
		p := smallParams()
		p.SizeBytes = 4 << 20
		p.FragSize = p.BlockSize / fpb
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			fs, err := NewFileSystem(p, nopPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			c := fs.Cg(rng.Intn(len(fs.cgs)))
			type alloc struct{ idx, n int }
			var live []alloc
			picks := 0
			for op := 0; op < 1500; op++ {
				// Free less often as the group fills, so runs of
				// every shape appear and the group nears exhaustion.
				full := 1 - float64(c.FreeFrags())/float64(c.nfrags)
				switch r := rng.Float64(); {
				case len(live) > 0 && r < 0.45*full:
					k := rng.Intn(len(live))
					c.freeFrags(live[k].idx, live[k].n)
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				case len(live) > 0 && r < 0.6:
					k := rng.Intn(len(live))
					if a := &live[k]; a.n < fpb {
						newN := a.n + 1 + rng.Intn(fpb-a.n)
						if c.extendFrags(a.idx, a.n, newN) {
							a.n = newN
						}
					}
				case r < 0.7:
					if b, _ := c.allocBlocksNear(rng.Intn(c.nfrags), 1); b >= 0 {
						live = append(live, alloc{b * fpb, fpb})
					}
				default:
					n := 1 + rng.Intn(fpb-1)
					pref := -1
					switch rng.Intn(4) {
					case 0:
						pref = c.nfrags + rng.Intn(c.nfrags) // past the group: rotor
					case 1, 2:
						pref = rng.Intn(c.nfrags)
					}
					want := linearAllocFragsPick(c, n, pref)
					got := c.allocFrags(n, pref)
					if got != want {
						t.Logf("fpb %d seed %d op %d: allocFrags(%d, %d) = %d, linear scan %d",
							fpb, seed, op, n, pref, got, want)
						return false
					}
					if got >= 0 {
						live = append(live, alloc{got, n})
						picks++
					}
				}
			}
			if picks == 0 {
				t.Logf("fpb %d seed %d: no fragment allocations", fpb, seed)
				return false
			}
			if err := fs.checkGroups(); err != nil {
				t.Logf("fpb %d seed %d: %v", fpb, seed, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("fpb %d: %v", fpb, err)
		}
	}
}

// perBlockMutate is mutateFrags as it was before whole-block runs,
// kept as the differential oracle: every block of [lo, hi) changes
// through its fragment pattern, and each block that turns fully free
// or fully allocated updates the cluster summary on its own, one
// ffs_clusteracct call per block. The clusterRuns index, which came
// later, is rebuilt from a rescan of the block map after the range.
func perBlockMutate(c *CylGroup, lo, hi int, alloc bool) {
	fpb, maxContig := c.fs.fpb, c.fs.P.MaxContig
	for b := lo / fpb; b <= (hi-1)/fpb; b++ {
		base := b * fpb
		blo, bhi := max(base, lo), min(base+fpb, hi)
		before := c.free.Mask8(base, fpb)
		seg := uint8(uint(1)<<uint(bhi-base)-1) &^ uint8(uint(1)<<uint(blo-base)-1)
		after := before | seg
		if alloc {
			after = before &^ seg
		}
		if (alloc && before&seg != seg) || (!alloc && before&seg != 0) {
			panic(fmt.Sprintf("perBlockMutate: illegal op on [%d,%d)", blo, bhi))
		}
		if alloc {
			c.free.ClearRange(blo, bhi)
		} else {
			c.free.SetRange(blo, bhi)
		}
		bp, ap := &c.fs.patterns[before], &c.fs.patterns[after]
		if bp.full != ap.full {
			back := c.blkfree.RunLengthBefore(b, maxContig)
			fwd := 0
			if b+1 < c.nblk {
				fwd = c.blkfree.RunLengthAt(b+1, maxContig)
			}
			if ap.full {
				c.nbfree++
				c.fs.freeBlks++
				c.blkfree.Set(b)
				c.clusterRemove(back)
				c.clusterRemove(fwd)
				c.clusterAdd(back + 1 + fwd)
			} else {
				c.nbfree--
				c.fs.freeBlks--
				c.blkfree.Clear(b)
				c.clusterRemove(back + 1 + fwd)
				c.clusterAdd(back)
				c.clusterAdd(fwd)
			}
		}
		c.nffree += ap.nf - bp.nf
		c.fs.freeFrags += int64(ap.freeTotal(fpb) - bp.freeTotal(fpb))
		for k := 1; k < fpb; k++ {
			c.frsum[k] += ap.runs[k] - bp.runs[k]
			if ap.runs[k] > 0 {
				c.fragRuns[k].Set(b)
			} else {
				c.fragRuns[k].Clear(b)
			}
		}
	}
	c.clusterRuns = c.recomputeSummary().clusterRuns
}

// sameState reports the first difference between fs and the oracle
// ref: any group's maps, summaries or counters (cgEqual), or the
// file-system-wide free counts.
func sameState(fs, ref *FileSystem) error {
	for i := range fs.cgs {
		if !cgEqual(fs, ref, i) {
			return fmt.Errorf("cg %d differs from the per-block oracle", i)
		}
	}
	if fs.freeFrags != ref.freeFrags || fs.freeBlks != ref.freeBlks {
		return fmt.Errorf("free counts %d frags/%d blocks, oracle %d/%d",
			fs.freeFrags, fs.freeBlks, ref.freeFrags, ref.freeBlks)
	}
	return nil
}

// catchCorruption runs fn and returns the *CorruptionError it throws,
// as an exported mutator would.
func catchCorruption(fn func()) (err error) {
	defer recoverCorruption(&err)
	fn()
	return nil
}

// TestMutateBlocksMatchesPerBlock drives random whole-block runs (longer
// than maxcontig, from the first data block, up to the group's last
// block), arbitrary fragment ranges, fragment allocations, extensions
// and frees through one group at every fragment geometry, applying each
// change to a twin file system through perBlockMutate. After every step
// both must agree on every map, summary and counter, so whole-block
// runs change the cost of an update and nothing else.
func TestMutateBlocksMatchesPerBlock(t *testing.T) {
	for _, fpb := range []int{1, 2, 4, 8} {
		p := smallParams()
		p.SizeBytes = 4 << 20
		p.FragSize = p.BlockSize / fpb
		p.BytesPerInode = max(p.BytesPerInode, p.FragSize)
		maxContig := p.MaxContig
		var longRuns, firstRuns, endRuns int
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			fs, err := NewFileSystem(p, nopPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewFileSystem(p, nopPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			gi := rng.Intn(len(fs.cgs))
			c, rc := fs.cgs[gi], ref.cgs[gi]
			first := c.DataStart() / fpb
			type alloc struct{ lo, hi int }
			var live []alloc
			claim := func(lo, hi int) {
				perBlockMutate(rc, lo, hi, true)
				live = append(live, alloc{lo, hi})
			}
			for op := 0; op < 800; op++ {
				full := 1 - float64(c.FreeFrags())/float64(c.nfrags)
				var what string
				switch r := rng.Float64(); {
				case len(live) > 0 && r < 0.5*full:
					// Free a whole allocation or any piece of one.
					k := rng.Intn(len(live))
					a := live[k]
					lo, hi := a.lo, a.hi
					if rng.Intn(2) == 0 {
						lo = a.lo + rng.Intn(a.hi-a.lo)
						hi = lo + 1 + rng.Intn(a.hi-lo)
					}
					what = fmt.Sprintf("free [%d,%d)", lo, hi)
					c.freeFrags(lo, hi-lo)
					perBlockMutate(rc, lo, hi, false)
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					if a.lo < lo {
						live = append(live, alloc{a.lo, lo})
					}
					if hi < a.hi {
						live = append(live, alloc{hi, a.hi})
					}
				case r < 0.6:
					// A run of whole blocks: anywhere, from the first
					// data block, or ending at the group's last block.
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
					what = fmt.Sprintf("alloc blocks [%d,%d)", b0, b0+n)
					c.mutateFrags(b0*fpb, (b0+n)*fpb, true)
					claim(b0*fpb, (b0+n)*fpb)
					if n > maxContig {
						longRuns++
					}
					if b0 == first {
						firstRuns++
					}
					if b0+n == c.nblk {
						endRuns++
					}
				case r < 0.7:
					// The cluster allocator's call site.
					n := 1 + rng.Intn(maxContig)
					b := c.allocCluster(first+rng.Intn(c.nblk-first), n)
					if b < 0 {
						continue
					}
					what = fmt.Sprintf("allocCluster [%d,%d)", b, b+n)
					claim(b*fpb, (b+n)*fpb)
				case r < 0.8:
					// Any free fragment range: partial head and tail
					// blocks around a whole-block middle.
					lo := rng.Intn(c.nfrags)
					n := c.free.RunLengthAt(lo, 1+rng.Intn(3*maxContig*fpb))
					if n == 0 {
						continue
					}
					what = fmt.Sprintf("alloc frags [%d,%d)", lo, lo+n)
					c.mutateFrags(lo, lo+n, true)
					claim(lo, lo+n)
				case fpb > 1 && len(live) > 0 && r < 0.85:
					k := rng.Intn(len(live))
					a := &live[k]
					oldN := a.hi - a.lo
					if oldN >= fpb {
						continue
					}
					newN := oldN + 1 + rng.Intn(fpb-oldN)
					if !c.extendFrags(a.lo, oldN, newN) {
						continue
					}
					what = fmt.Sprintf("extend [%d,%d) to %d", a.lo, a.hi, newN)
					perBlockMutate(rc, a.hi, a.lo+newN, true)
					a.hi = a.lo + newN
				case fpb > 1:
					n := 1 + rng.Intn(fpb-1)
					idx := c.allocFrags(n, rng.Intn(c.nfrags))
					if idx < 0 {
						continue
					}
					what = fmt.Sprintf("allocFrags %d at %d", n, idx)
					claim(idx, idx+n)
				default:
					continue
				}
				if err := sameState(fs, ref); err != nil {
					t.Logf("fpb %d seed %d op %d (%s): %v", fpb, seed, op, what, err)
					return false
				}
				if err := fs.checkGroups(); err != nil {
					t.Logf("fpb %d seed %d op %d (%s): %v", fpb, seed, op, what, err)
					return false
				}
			}
			// Releasing everything leaves a clean file system.
			for _, a := range live {
				c.freeFrags(a.lo, a.hi-a.lo)
				perBlockMutate(rc, a.lo, a.hi, false)
			}
			if err := sameState(fs, ref); err != nil {
				t.Logf("fpb %d seed %d after release: %v", fpb, seed, err)
				return false
			}
			if err := fs.Check(); err != nil {
				t.Logf("fpb %d seed %d after release: %v", fpb, seed, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
			t.Fatalf("fpb %d: %v", fpb, err)
		}
		if longRuns == 0 || firstRuns == 0 || endRuns == 0 {
			t.Fatalf("fpb %d: runs longer than maxcontig %d, from the first data block %d, to the group end %d; want each > 0",
				fpb, longRuns, firstRuns, endRuns)
		}

		// Consecutive addresses that cross into the next group are
		// freed as one run per group. (The next group's first block is
		// its metadata, so no file holds such a pair; freeBlocks must
		// still not hand a group a range past its end.)
		fs, err := NewFileSystem(p, nopPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewFileSystem(p, nopPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		c0 := fs.cgs[0]
		last := (c0.nblk - 1) * fpb
		c0.mutateFrags(last, last+fpb, true)
		perBlockMutate(ref.cgs[0], last, last+fpb, true)
		if err := catchCorruption(func() {
			fs.freeBlocks([]Daddr{c0.absFrag(last), fs.cgs[1].startFrag})
		}); err != nil {
			t.Fatalf("fpb %d: freeing a run across a group boundary: %v", fpb, err)
		}
		perBlockMutate(ref.cgs[0], last, last+fpb, false)
		perBlockMutate(ref.cgs[1], 0, fpb, false)
		if err := sameState(fs, ref); err != nil {
			t.Fatalf("fpb %d: run across a group boundary: %v", fpb, err)
		}
	}
}
