package ffs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// Each repair test corrupts a healthy file system the way the Check
// tests do, then asserts Repair returns a report of the damage and
// leaves the file system Check-clean.

func mustRepair(t *testing.T, fs *FileSystem) *RepairReport {
	t.Helper()
	rep, err := fs.Repair()
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if err := fs.Check(); err != nil {
		t.Fatalf("Check after Repair: %v", err)
	}
	return rep
}

func TestRepairOnCleanFsIsNoop(t *testing.T) {
	fs, _ := corruptibleFs(t)
	rep := mustRepair(t, fs)
	if rep.Any() {
		t.Fatalf("repair of a clean fs reported changes: %v", rep)
	}
}

func TestRepairFixesEachCorruptionClass(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(fs *FileSystem, f *File)
	}{
		{"leaked fragment", func(fs *FileSystem, f *File) {
			c := fs.CgOf(f.Blocks[0])
			c.free.Clear(c.free.NextSet(0))
		}},
		{"counter drift", func(fs *FileSystem, f *File) {
			fs.Cg(1).nffree++
		}},
		{"frsum drift", func(fs *FileSystem, f *File) {
			fs.Cg(0).frsum[3]++
		}},
		{"fragRuns drift", func(fs *FileSystem, f *File) {
			driftFragRuns(fs)
		}},
		{"clusterSum drift", func(fs *FileSystem, f *File) {
			c := fs.Cg(2)
			c.clusterSum[fs.P.MaxContig]--
			c.clusterSum[1]++
		}},
		{"clusterRuns drift", func(fs *FileSystem, f *File) {
			driftClusterRuns(fs)
		}},
		{"block map drift", func(fs *FileSystem, f *File) {
			c := fs.Cg(2)
			c.blkfree.Clear(c.blkfree.NextSet(0))
		}},
		{"size shape mismatch", func(fs *FileSystem, f *File) {
			f.Size += 9000
		}},
		{"missing indirect", func(fs *FileSystem, f *File) {
			fs.freeRange(f.Indirects[0].Addr, fs.fpb)
			f.Indirects = nil
		}},
		{"orphan indirect", func(fs *FileSystem, f *File) {
			addr, _, err := fs.allocBlocksMech(0, NilDaddr, 1)
			if err != nil {
				panic(err)
			}
			f.Indirects = append(f.Indirects, Indirect{BeforeLbn: 5, Addr: addr, Level: 1})
		}},
		{"inode bitmap drift", func(fs *FileSystem, f *File) {
			fs.ifree(f.Ino)
		}},
		{"ndir drift", func(fs *FileSystem, f *File) {
			fs.Cg(0).ndir++
		}},
		{"broken dir linkage", func(fs *FileSystem, f *File) {
			f.Parent.deleteEntry(f.Name)
		}},
		{"renamed entry", func(fs *FileSystem, f *File) {
			parent := f.Parent
			parent.deleteEntry(f.Name)
			parent.putEntry("sneaky", f)
		}},
		{"stale index slot", func(fs *FileSystem, f *File) {
			d := f.Parent
			i, _ := d.slot(f.Name)
			d.entryIdx[f.Name] = int32((i + 1) % len(d.entries))
		}},
		{"index name with no entry", func(fs *FileSystem, f *File) {
			f.Parent.entryIdx["ghost"] = 0
		}},
		{"layout counter drift", func(fs *FileSystem, f *File) {
			fs.layoutOpt++
		}},
		{"negative size", func(fs *FileSystem, f *File) {
			// The blocks become leaks; the file shrinks to empty.
			f.Size = -5
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, f := corruptibleFs(t)
			tc.corrupt(fs, f)
			if err := fs.Check(); err == nil {
				t.Fatal("fixture corruption was not detectable")
			}
			rep := mustRepair(t, fs)
			if !rep.Any() {
				t.Fatalf("repair fixed %q but reported no changes", tc.name)
			}
		})
	}
}

func TestRepairDoubleAllocationTruncatesLaterClaimant(t *testing.T) {
	fs, f := corruptibleFs(t)
	// Two logical blocks point at the same disk block; the fragments of
	// the abandoned block leak.
	fs.freeRange(f.Blocks[3], fs.fpb)
	f.Blocks[3] = f.Blocks[4]
	wantCheckError(t, fs, "doubly allocated")
	rep := mustRepair(t, fs)
	if rep.TruncatedFiles != 1 {
		t.Fatalf("TruncatedFiles = %d, want 1", rep.TruncatedFiles)
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("victim keeps %d blocks, want 4 (cut at the conflict)", len(f.Blocks))
	}
}

func TestRepairTornWrite(t *testing.T) {
	fs, f := corruptibleFs(t)
	freeBefore := fs.FreeFrags()
	nblocks := len(f.Blocks)
	if !fs.TearFile(f) {
		t.Fatal("TearFile refused a multi-block file")
	}
	if err := fs.Check(); err == nil {
		t.Fatal("torn write not detected")
	}
	rep := mustRepair(t, fs)
	if rep.TruncatedFiles != 0 && rep.ShapeFixes == 0 {
		t.Fatalf("unexpected report: %v", rep)
	}
	if rep.LeakedFrags == 0 {
		t.Fatalf("torn block's fragments not reported leaked: %v", rep)
	}
	if len(f.Blocks) != nblocks-1 {
		t.Fatalf("file has %d blocks, want %d", len(f.Blocks), nblocks-1)
	}
	// The torn block's fragments are free again.
	if got := fs.FreeFrags(); got != freeBefore+int64(fs.fpb) {
		t.Fatalf("FreeFrags = %d, want %d", got, freeBefore+int64(fs.fpb))
	}
}

func TestRepairReattachesOrphan(t *testing.T) {
	fs, f := corruptibleFs(t)
	// Sever both directions: no entry, dangling parent pointer.
	f.Parent.deleteEntry(f.Name)
	f.Parent = &File{Ino: f.Parent.Ino, IsDir: true} // dead copy
	rep := mustRepair(t, fs)
	if rep.ReattachedOrphans != 1 {
		t.Fatalf("ReattachedOrphans = %d, want 1", rep.ReattachedOrphans)
	}
	if f.Parent != fs.Root() {
		t.Fatal("orphan not reattached to the root")
	}
}

func TestRepairBreaksParentCycle(t *testing.T) {
	fs, _ := corruptibleFs(t)
	a, err := fs.Mkdir(fs.Root(), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.Mkdir(a, "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	// a and b point at each other; neither reaches the root.
	fs.Root().deleteEntry("a")
	a.Parent = b
	b.putEntry("a", a)
	rep := mustRepair(t, fs)
	if rep.ReattachedOrphans == 0 {
		t.Fatalf("cycle not reported: %v", rep)
	}
	for f := b; ; f = f.Parent {
		if f == fs.Root() {
			break
		}
		if f.Parent == nil || f.Parent == f {
			t.Fatal("cycle member still cannot reach the root")
		}
	}
}

func TestLoadImageLenientThenRepair(t *testing.T) {
	fs, f := corruptibleFs(t)
	if !fs.TearFile(f) {
		t.Fatal("TearFile failed")
	}
	var buf bytes.Buffer
	if err := fs.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	// Strict load refuses the damaged image.
	if _, err := LoadImage(bytes.NewReader(buf.Bytes()), nopPolicy{}); err == nil {
		t.Fatal("strict LoadImage accepted a torn image")
	}
	// The lenient loader resolves the policy name the image records.
	var recorded string
	loaded, err := LoadImageLenient(bytes.NewReader(buf.Bytes()), func(name string) (Policy, error) {
		recorded = name
		return nopPolicy{}, nil
	})
	if recorded != (nopPolicy{}).Name() {
		t.Errorf("lenient load resolved policy %q, want the recorded %q", recorded, (nopPolicy{}).Name())
	}
	if err != nil {
		t.Fatalf("LoadImageLenient: %v", err)
	}
	if _, err := loaded.Repair(); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if err := loaded.Check(); err != nil {
		t.Fatalf("Check after lenient load + repair: %v", err)
	}
	if loaded.FileCount() != fs.FileCount() {
		t.Fatalf("lenient load kept %d files, want %d", loaded.FileCount(), fs.FileCount())
	}
}

func TestImageRoundTripPreservesAllocatorState(t *testing.T) {
	fs, _ := corruptibleFs(t)
	var buf bytes.Buffer
	if err := fs.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadImage(bytes.NewReader(buf.Bytes()), nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats != fs.Stats {
		t.Fatalf("Stats not preserved: %+v vs %+v", loaded.Stats, fs.Stats)
	}
	for i := 0; i < fs.NumCg(); i++ {
		if loaded.Cg(i).rotor != fs.Cg(i).rotor {
			t.Fatalf("cg %d rotor %d, want %d", i, loaded.Cg(i).rotor, fs.Cg(i).rotor)
		}
	}
	// Future allocations are identical: byte-identical resume depends on
	// this.
	a1, _, err1 := fs.allocBlocksMech(1, NilDaddr, 1)
	a2, _, err2 := loaded.allocBlocksMech(1, NilDaddr, 1)
	if err1 != nil || err2 != nil {
		t.Fatalf("alloc errors: %v, %v", err1, err2)
	}
	if a1 != a2 {
		t.Fatalf("post-load allocation diverged: %d vs %d", a1, a2)
	}
}

func TestCorruptionErrorSurfacesNotPanics(t *testing.T) {
	fs, f := corruptibleFs(t)
	// Make the allocator's world inconsistent: a group claims free
	// blocks its bitmap does not have.
	c := fs.CgOf(f.Blocks[0])
	c.free.ClearRange(0, c.nfrags)
	c.blkfree.ClearRange(0, c.nblk)
	// Exhaust other groups so the allocator must use the broken one.
	for i := 0; i < fs.NumCg(); i++ {
		g := fs.Cg(i)
		if g == c {
			continue
		}
		g.free.ClearRange(0, g.nfrags)
		g.blkfree.ClearRange(0, g.nblk)
		g.nffree, g.nbfree = 0, 0
		for k := range g.frsum {
			g.frsum[k] = 0
		}
		for k := range g.clusterSum {
			g.clusterSum[k] = 0
		}
	}
	fs.IgnoreReserve = true
	err := fs.Append(f, 64<<10, 1)
	if err == nil {
		t.Fatal("append on a gutted fs succeeded")
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("got %T (%v), want *CorruptionError", err, err)
	}
	// And Repair makes the fs usable again.
	mustRepair(t, fs)
}

// TestRunDiagnosticsNameFirstFragment pins the corruption report of the
// whole-block run path: freeing a file whose contiguous run holds an
// already-free block, and a cluster allocation over a run holding an
// allocated fragment, both fail with the per-fragment diagnostic of the
// old block-at-a-time loop, naming the first offending fragment. The
// one behavioural difference: a run is checked before any of it
// changes, so the failed free leaves every block of the run allocated
// (the old loop had already freed the blocks it met first, the file's
// last ones), and the failed cluster claims none of its blocks.
func TestRunDiagnosticsNameFirstFragment(t *testing.T) {
	want := func(t *testing.T, err error, op string, cg int, detail string) {
		t.Helper()
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("got %T (%v), want *CorruptionError", err, err)
		}
		if ce.Op != op || ce.Cg != cg || ce.Detail != detail {
			t.Fatalf("got %s in cg %d: %q; want %s in cg %d: %q", ce.Op, ce.Cg, ce.Detail, op, cg, detail)
		}
	}

	t.Run("delete", func(t *testing.T) {
		fs := newSmallFs(t)
		fpb := fs.fpb
		f := mustCreate(t, fs, fs.Root(), "run", 5*int64(fs.P.BlockSize))
		if len(f.Blocks) != 5 || !f.RunIsContiguous(0, 5, fpb) {
			t.Fatalf("want 5 contiguous blocks, got %v", f.Blocks)
		}
		c := fs.CgOf(f.Blocks[0])
		bad := c.relFrag(f.Blocks[2])
		c.freeFrags(bad, fpb) // block 2 is free while the file still maps it
		want(t, fs.Delete(f), "mutateFrags", c.Index, fmt.Sprintf("frag %d already free", bad))
		for i, d := range f.Blocks {
			if rel := c.relFrag(d); i != 2 && c.free.CountRange(rel, rel+fpb) != 0 {
				t.Fatalf("block %d of the failed run was freed", i)
			}
		}
	})

	t.Run("allocCluster", func(t *testing.T) {
		fs := newSmallFs(t)
		fpb := fs.fpb
		c := fs.Cg(1)
		b := c.DataStart()/fpb + 3
		bad := (b+1)*fpb + fpb/2
		c.free.Clear(bad) // allocated in the map, block b+1 still counted free
		err := catchCorruption(func() { c.allocCluster(b, 4) })
		want(t, err, "mutateFrags", c.Index, fmt.Sprintf("frag %d already allocated", bad))
		if c.free.CountRange(b*fpb, (b+4)*fpb) != 4*fpb-1 {
			t.Fatal("the failed cluster claimed fragments")
		}
	})
}

// TestRepairRebuildsNameIndex swaps two names' slots in a directory's
// index and adds a name with no entry: Repair must report the damage
// and rebuild the index so every entry resolves to its own file again,
// with the file tree unchanged.
func TestRepairRebuildsNameIndex(t *testing.T) {
	fs, f := corruptibleFs(t)
	d := f.Parent
	i, _ := d.slot("victim")
	j, _ := d.slot("tail")
	d.entryIdx["victim"], d.entryIdx["tail"] = int32(j), int32(i)
	d.entryIdx["ghost"] = 0
	wantCheckError(t, fs, "index")
	rep := mustRepair(t, fs)
	if rep.RelinkedFiles == 0 {
		t.Fatalf("index damage not reported: %v", rep)
	}
	if rep.ReattachedOrphans != 0 || rep.RenamedFiles != 0 {
		t.Fatalf("repair moved files for index damage: %v", rep)
	}
	if _, ok := d.entryIdx["ghost"]; ok {
		t.Fatal("stale name survived the rebuild")
	}
	for _, e := range d.entries {
		if got, ok := d.lookupEntry(e.name); !ok || got != e.file || e.file.Parent != d {
			t.Fatalf("entry %q does not resolve to its file after repair", e.name)
		}
	}
	if got, ok := fs.Lookup(d, "victim"); !ok || got != f {
		t.Fatal("victim lost its entry")
	}
}
