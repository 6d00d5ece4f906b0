package ffs

import (
	"fmt"

	"ffsage/internal/bitset"
)

// Check verifies the file system's internal consistency, recomputing
// every summary from first principles — an in-memory fsck. It returns
// the first inconsistency found, or nil. Tests run it after every
// scenario; the aging replayer runs it at checkpoints.
//
// Verified invariants:
//
//  1. per-group counters (nffree, nbfree, frsum and its fragRuns index,
//     cluster summary and its clusterRuns index, block map) match a
//     recomputation from the fragment bitmap;
//  2. the union of all file extents, indirect blocks, and metadata
//     areas exactly equals the allocated fragments (no leaks, no double
//     allocation);
//  3. every file's shape is legal: size vs. block count, tail fragment
//     rules, indirect blocks present exactly where required;
//  4. inode maps agree with the live file table;
//  5. directory tree linkage is coherent, and each directory's name
//     index agrees with its entry table.
func (fs *FileSystem) Check() error {
	if err := fs.checkGroups(); err != nil {
		return err
	}
	if err := fs.checkExtents(); err != nil {
		return err
	}
	if err := fs.checkFiles(); err != nil {
		return err
	}
	if err := fs.checkLayoutCounts(); err != nil {
		return err
	}
	return fs.checkInodesAndDirs()
}

// checkLayoutCounts verifies the incremental layout-score counters —
// both the per-file caches and the file-system totals — against a full
// rescan of every plain file's block map.
func (fs *FileSystem) checkLayoutCounts() error {
	var opt, total int64
	for _, f := range fs.Files() {
		ino := f.Ino
		if f.IsDir {
			if f.scoreOpt != 0 || f.scoreTotal != 0 {
				return fmt.Errorf("dir ino %d carries layout cache %d/%d", ino, f.scoreOpt, f.scoreTotal)
			}
			continue
		}
		o, t := fileLayoutCounts(f, fs.fpb)
		if o != f.scoreOpt || t != f.scoreTotal {
			return fmt.Errorf("ino %d: layout cache %d/%d, rescan %d/%d",
				ino, f.scoreOpt, f.scoreTotal, o, t)
		}
		opt += int64(o)
		total += int64(t)
	}
	if opt != fs.layoutOpt || total != fs.layoutTotal {
		return fmt.Errorf("layout counters %d/%d, rescan %d/%d",
			fs.layoutOpt, fs.layoutTotal, opt, total)
	}
	return nil
}

// groupSummary is the part of a cylinder group derived from its
// fragment map: the free counters, frsum and its fragRuns index, the
// block free map and the cluster summary with its clusterRuns index.
type groupSummary struct {
	nffree, nbfree int
	frsum          []int
	fragRuns       []*bitset.Set
	blkfree        *bitset.Set
	clusterSum     []int
	clusterRuns    []*bitset.Set
}

// recomputeSummary derives the group's summary from its fragment map
// alone, ignoring every stored summary. Check compares the result with
// the stored one; Repair installs it.
func (c *CylGroup) recomputeSummary() groupSummary {
	fpb, maxContig := c.fs.fpb, c.fs.P.MaxContig
	s := groupSummary{
		frsum:       make([]int, fpb),
		fragRuns:    newRunIndex(fpb, c.nblk),
		blkfree:     bitset.New(c.nblk),
		clusterSum:  make([]int, maxContig+1),
		clusterRuns: newRunIndex(maxContig+2, c.nblk),
	}
	for b := 0; b < c.nblk; b++ {
		p := c.pattern(b)
		if p.full {
			s.nbfree++
			s.blkfree.Set(b)
			continue
		}
		s.nffree += p.nf
		for k := 1; k < fpb; k++ {
			s.frsum[k] += p.runs[k]
			if p.runs[k] > 0 {
				s.fragRuns[k].Set(b)
			}
		}
	}
	// Cluster summary: maximal free-block runs, counted capped at
	// maxcontig and indexed by start capped at maxcontig+1.
	run := 0
	for b := 0; b <= c.nblk; b++ {
		if b < c.nblk && s.blkfree.Test(b) {
			run++
			continue
		}
		if run > 0 {
			s.clusterSum[min(run, maxContig)]++
			s.clusterRuns[c.runBin(run)].Set(b - run)
			run = 0
		}
	}
	return s
}

// summaryDrift returns the first way the group's stored summary
// disagrees with s, or nil when they agree.
func (c *CylGroup) summaryDrift(s groupSummary) error {
	if s.nffree != c.nffree || s.nbfree != c.nbfree {
		return fmt.Errorf("cg %d: counters nffree=%d/%d nbfree=%d/%d (recomputed/stored)",
			c.Index, s.nffree, c.nffree, s.nbfree, c.nbfree)
	}
	for k := 1; k < c.fs.fpb; k++ {
		if s.frsum[k] != c.frsum[k] {
			return fmt.Errorf("cg %d: frsum[%d]=%d, stored %d", c.Index, k, s.frsum[k], c.frsum[k])
		}
	}
	for k := 1; k < c.fs.fpb; k++ {
		if !s.fragRuns[k].Equal(c.fragRuns[k]) {
			return fmt.Errorf("cg %d: fragRuns[%d] index disagrees with fragment map", c.Index, k)
		}
	}
	if !s.blkfree.Equal(c.blkfree) {
		return fmt.Errorf("cg %d: block free map disagrees with fragment map", c.Index)
	}
	for k := 1; k <= c.fs.P.MaxContig; k++ {
		if s.clusterSum[k] != c.clusterSum[k] {
			return fmt.Errorf("cg %d: clusterSum[%d]=%d, stored %d", c.Index, k, s.clusterSum[k], c.clusterSum[k])
		}
	}
	for k := 1; k < len(s.clusterRuns); k++ {
		if !s.clusterRuns[k].Equal(c.clusterRuns[k]) {
			return fmt.Errorf("cg %d: clusterRuns[%d] index disagrees with block free map", c.Index, k)
		}
	}
	return nil
}

func (fs *FileSystem) checkGroups() error {
	for _, c := range fs.cgs {
		if err := c.summaryDrift(c.recomputeSummary()); err != nil {
			return err
		}
	}
	// The per-group counters are sound; the cached file-system-wide
	// totals must agree with their sum.
	var sumFrags, sumBlks int64
	for _, c := range fs.cgs {
		sumFrags += int64(c.FreeFrags())
		sumBlks += int64(c.nbfree)
	}
	if sumFrags != fs.freeFrags || sumBlks != fs.freeBlks {
		return fmt.Errorf("cached free counts frags=%d blks=%d, groups sum to %d/%d",
			fs.freeFrags, fs.freeBlks, sumFrags, sumBlks)
	}
	return nil
}

func (fs *FileSystem) checkExtents() error {
	want := bitset.New(int(fs.P.TotalFrags()))
	claim := func(d Daddr, n int, what string) error {
		lo := int(d)
		if lo < 0 || lo+n > want.Len() {
			return fmt.Errorf("%s: extent [%d,%d) out of range", what, lo, lo+n)
		}
		for i := lo; i < lo+n; i++ {
			if want.Test(i) {
				return fmt.Errorf("%s: fragment %d doubly allocated", what, i)
			}
			want.Set(i)
		}
		return nil
	}
	for _, c := range fs.cgs {
		if c.metaFrags > 0 {
			if err := claim(c.startFrag, c.metaFrags, fmt.Sprintf("cg %d metadata", c.Index)); err != nil {
				return err
			}
		}
	}
	for _, f := range fs.Files() {
		ino := f.Ino
		for i, addr := range f.Blocks {
			n := fs.fpb
			if i == len(f.Blocks)-1 {
				n = f.TailFrags
			}
			if err := claim(addr, n, fmt.Sprintf("ino %d block %d", ino, i)); err != nil {
				return err
			}
		}
		for _, ind := range f.Indirects {
			if err := claim(ind.Addr, fs.fpb, fmt.Sprintf("ino %d indirect@%d", ino, ind.BeforeLbn)); err != nil {
				return err
			}
		}
	}
	for _, c := range fs.cgs {
		for i := 0; i < c.nfrags; i++ {
			abs := int(c.startFrag) + i
			allocated := !c.free.Test(i)
			if allocated != want.Test(abs) {
				return fmt.Errorf("cg %d frag %d: map says allocated=%v, files say %v",
					c.Index, i, allocated, want.Test(abs))
			}
		}
	}
	return nil
}

func (fs *FileSystem) checkFiles() error {
	bs := int64(fs.P.BlockSize)
	files := fs.Files()
	if len(files) != fs.nfiles {
		return fmt.Errorf("file table holds %d files, count says %d", len(files), fs.nfiles)
	}
	for _, f := range files {
		ino := f.Ino
		if fs.FileByIno(ino) != f {
			return fmt.Errorf("ino %d: not in its own table slot", ino)
		}
		wantBlocks := 0
		if f.Size > 0 {
			wantBlocks = int((f.Size + bs - 1) / bs)
		}
		if len(f.Blocks) != wantBlocks {
			return fmt.Errorf("ino %d: %d blocks for size %d (want %d)", ino, len(f.Blocks), f.Size, wantBlocks)
		}
		if wantBlocks > 0 {
			lastIdx := wantBlocks - 1
			wantTail := fs.fpb
			if lastIdx < NDirect {
				wantTail = fs.fragsForBytes(f.Size - int64(lastIdx)*bs)
			}
			if f.TailFrags != wantTail {
				return fmt.Errorf("ino %d: tail %d frags for size %d (want %d)", ino, f.TailFrags, f.Size, wantTail)
			}
		} else if f.TailFrags != 0 {
			return fmt.Errorf("ino %d: empty file with tail %d", ino, f.TailFrags)
		}
		// Indirect blocks exactly at their boundaries.
		ppi := fs.ptrsPerIndirect()
		wantInd := map[int][2]int{} // BeforeLbn → {level1, level2} counts
		for lbn := NDirect; lbn < wantBlocks; lbn += ppi {
			w := wantInd[lbn]
			w[0]++
			if lbn == NDirect+ppi {
				w[1]++
			}
			wantInd[lbn] = w
		}
		got := map[int][2]int{}
		for _, ind := range f.Indirects {
			g := got[ind.BeforeLbn]
			switch ind.Level {
			case 1:
				g[0]++
			case 2:
				g[1]++
			default:
				return fmt.Errorf("ino %d: indirect level %d", ino, ind.Level)
			}
			got[ind.BeforeLbn] = g
		}
		for lbn, w := range wantInd {
			if got[lbn] != w {
				return fmt.Errorf("ino %d: indirects at lbn %d = %v, want %v", ino, lbn, got[lbn], w)
			}
		}
		for lbn := range got {
			if _, ok := wantInd[lbn]; !ok {
				return fmt.Errorf("ino %d: orphan indirect at lbn %d", ino, lbn)
			}
		}
	}
	return nil
}

func (fs *FileSystem) checkInodesAndDirs() error {
	// The name indexes first: the linkage checks below look names up
	// through them.
	files := fs.Files()
	for _, f := range files {
		if f.IsDir {
			if err := f.indexDrift(); err != nil {
				return err
			}
		}
	}
	for _, f := range files {
		ino := f.Ino
		cg := fs.cgs[fs.InoToCg(ino)]
		if cg.inodes.Test(ino % fs.ipg) {
			return fmt.Errorf("ino %d live but marked free", ino)
		}
		if f.Parent == nil {
			if f != fs.root {
				return fmt.Errorf("ino %d (%s) has no parent and is not root", ino, f.Name)
			}
			continue
		}
		if got, ok := f.Parent.lookupEntry(f.Name); !ok || got != f {
			return fmt.Errorf("ino %d (%s): parent entry missing or wrong", ino, f.Path())
		}
		if !f.Parent.holdsAt(f) {
			return fmt.Errorf("ino %d (%s): recorded entry slot %d holds another file", ino, f.Path(), f.entSlot)
		}
	}
	ndir := make([]int, len(fs.cgs))
	nAlloc := make([]int, len(fs.cgs))
	for _, f := range files {
		if f.IsDir {
			ndir[fs.InoToCg(f.Ino)]++
		}
		nAlloc[fs.InoToCg(f.Ino)]++
		for _, e := range f.entries {
			if e.file.Parent != f || e.file.Name != e.name {
				return fmt.Errorf("dir %s: entry %q badly linked", f.Path(), e.name)
			}
		}
	}
	for _, c := range fs.cgs {
		if c.ndir != ndir[c.Index] {
			return fmt.Errorf("cg %d: ndir=%d, counted %d", c.Index, c.ndir, ndir[c.Index])
		}
		if free := c.inodes.Count(); free != c.nifree {
			return fmt.Errorf("cg %d: nifree=%d, bitmap %d", c.Index, c.nifree, free)
		}
		if fs.ipg-c.inodes.Count() != nAlloc[c.Index] {
			return fmt.Errorf("cg %d: %d inodes marked used, %d live files",
				c.Index, fs.ipg-c.inodes.Count(), nAlloc[c.Index])
		}
	}
	return nil
}
