package ffs

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"unsafe"
)

// populate fills fs with n small files of varying shapes under a few
// directories, returning the plain files created.
func populate(t *testing.T, fs *FileSystem, n int) []*File {
	t.Helper()
	bs := int64(fs.P.BlockSize)
	var dirs []*File
	for i := 0; i < 4; i++ {
		d, err := fs.Mkdir(fs.Root(), fmt.Sprintf("d%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, d)
	}
	var files []*File
	for i := 0; i < n; i++ {
		size := int64(i%9+1) * bs / 2 // mix of fragment tails and multi-block files
		f, err := fs.CreateFile(dirs[i%len(dirs)], fmt.Sprintf("f%d", i), size, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// cgEqual reports whether the structural state of group i is identical
// in both file systems: fragment bitmap, block bitmap, cluster
// summaries and their clusterRuns index, fragment-size summaries and
// their fragRuns index, inode map and counters.
func cgEqual(a, b *FileSystem, i int) bool {
	ca, cb := a.cgs[i], b.cgs[i]
	if !ca.free.Equal(cb.free) || !ca.blkfree.Equal(cb.blkfree) || !ca.inodes.Equal(cb.inodes) {
		return false
	}
	if ca.nffree != cb.nffree || ca.nbfree != cb.nbfree || ca.nifree != cb.nifree || ca.ndir != cb.ndir {
		return false
	}
	for k := range ca.frsum {
		if ca.frsum[k] != cb.frsum[k] {
			return false
		}
	}
	for k := 1; k < len(ca.fragRuns); k++ {
		if !ca.fragRuns[k].Equal(cb.fragRuns[k]) {
			return false
		}
	}
	for k := range ca.clusterSum {
		if ca.clusterSum[k] != cb.clusterSum[k] {
			return false
		}
	}
	for k := 1; k < len(ca.clusterRuns); k++ {
		if !ca.clusterRuns[k].Equal(cb.clusterRuns[k]) {
			return false
		}
	}
	return true
}

// TestCloneSharesNothing verifies the deep-copy audit: a clone starts
// structurally identical, shares no mutable state with the original
// (mutating both concurrently is race-free), and afterwards the two
// have fully diverged — bitmaps, cluster summaries and inode tables —
// while each remains internally consistent. Run under -race this is
// the concurrency-boundary guarantee the aged-image cache relies on.
func TestCloneSharesNothing(t *testing.T) {
	p := smallParams()
	p.RotDelay = 4 // so every cached Params value is nonzero
	orig, err := NewFileSystem(p, nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, orig, 60)
	clone := orig.Clone()

	for i := range orig.cgs {
		if !cgEqual(orig, clone, i) {
			t.Fatalf("cg %d differs immediately after Clone", i)
		}
	}
	if o, c := orig.LayoutScore(), clone.LayoutScore(); o != c {
		t.Fatalf("clone layout score %v, original %v", c, o)
	}
	if o, c := orig.derived, clone.derived; o != c || o.totalFrags != p.TotalFrags() || o.rotDelayFrags == 0 {
		t.Fatalf("clone Params cache %+v, original %+v, TotalFrags %d", c, o, p.TotalFrags())
	}

	// Mutate both concurrently with divergent operations.
	bs := int64(p.BlockSize)
	mutate := func(fs *FileSystem, tag string, createN int, deleteStride int) error {
		var victims []*File
		for _, f := range fs.files {
			if !f.IsDir {
				victims = append(victims, f)
			}
		}
		// Map order would vary the victim set run to run; pick by inode.
		sort.Slice(victims, func(i, j int) bool { return victims[i].Ino < victims[j].Ino })
		for i := 0; i < len(victims); i += deleteStride {
			if err := fs.Delete(victims[i]); err != nil {
				return err
			}
		}
		for i := 0; i < createN; i++ {
			d, err := fs.Mkdir(fs.Root(), fmt.Sprintf("%s%d", tag, i), 1)
			if err != nil {
				return err
			}
			if _, err := fs.CreateFile(d, "x", int64(i%5+1)*bs, 1); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = mutate(orig, "o", 20, 2) }()
	go func() { defer wg.Done(); errs[1] = mutate(clone, "c", 7, 3) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mutator %d: %v", i, err)
		}
	}

	// Both remain internally consistent...
	if err := orig.Check(); err != nil {
		t.Fatalf("original inconsistent after concurrent mutation: %v", err)
	}
	if err := clone.Check(); err != nil {
		t.Fatalf("clone inconsistent after concurrent mutation: %v", err)
	}
	// ...and have structurally diverged.
	diverged := 0
	for i := range orig.cgs {
		if !cgEqual(orig, clone, i) {
			diverged++
		}
	}
	if diverged == 0 {
		t.Fatal("no cylinder group diverged after divergent mutation")
	}
	if len(orig.files) == len(clone.files) {
		t.Fatalf("file tables did not diverge (%d files each)", len(orig.files))
	}
	if o, c := orig.LayoutScore(), clone.LayoutScore(); o == c {
		t.Logf("layout scores coincide (%v); acceptable but unexpected", o)
	}
}

// TestCloneFileIndependence pins the per-file deep copy: appending to a
// cloned file must not disturb the original's block map or tree links.
func TestCloneFileIndependence(t *testing.T) {
	fs, err := NewFileSystem(smallParams(), nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	files := populate(t, fs, 10)
	f := files[3]
	before := append([]Daddr(nil), f.Blocks...)

	clone := fs.Clone()
	cf := clone.files[f.Ino]
	if cf == f {
		t.Fatal("clone shares *File pointers")
	}
	if cf.Parent == f.Parent {
		t.Fatal("clone shares parent directory pointers")
	}
	if err := clone.Append(cf, int64(3*clone.P.BlockSize), 2); err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != len(before) {
		t.Fatalf("original grew from %d to %d blocks", len(before), len(f.Blocks))
	}
	for i, a := range before {
		if f.Blocks[i] != a {
			t.Fatalf("original block %d moved", i)
		}
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCloneSlabAliasing grows a cloned file, its neighbour in the
// clone's block-map slab, and the source file, then compares every
// block map with a per-file deep copy — an image round trip that went
// through the same operations. A copy whose capacity ran past its
// length would let the first append overwrite the neighbour's blocks.
func TestCloneSlabAliasing(t *testing.T) {
	src := newSmallFs(t)
	populate(t, src, 40)
	roundTrip := func() *FileSystem {
		fs, err := LoadImage(bytes.NewReader(imageBytes(t, src)), nopPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	srcRef, cloneRef := roundTrip(), roundTrip()
	clone := src.Clone()

	// Find two plain files whose block maps sit back to back in the
	// clone's slab.
	var a, b *File
	addr := func(f *File) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(f.Blocks))) }
	for _, f := range clone.files {
		if f.IsDir || len(f.Blocks) == 0 {
			continue
		}
		end := addr(f) + uintptr(len(f.Blocks))*unsafe.Sizeof(Daddr(0))
		for _, g := range clone.files {
			if !g.IsDir && len(g.Blocks) > 0 && addr(g) == end && (a == nil || f.Ino < a.Ino) {
				a, b = f, g
			}
		}
	}
	if a == nil {
		t.Fatal("no two plain files are slab neighbours")
	}
	bs := int64(src.P.BlockSize)
	grow := func(fs *FileSystem, ino int, n int64) {
		t.Helper()
		if err := fs.Append(fs.files[ino], n, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, fs := range []*FileSystem{clone, cloneRef} {
		grow(fs, a.Ino, 3*bs)
		grow(fs, b.Ino, 2*bs+bs/3)
	}
	for _, fs := range []*FileSystem{src, srcRef} {
		grow(fs, a.Ino, 5*bs)
	}
	for _, pair := range [][2]*FileSystem{{clone, cloneRef}, {src, srcRef}} {
		if err := sameFiles(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
		if err := pair[0].Check(); err != nil {
			t.Fatal(err)
		}
	}
}
