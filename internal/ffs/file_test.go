package ffs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCreate(t *testing.T, fs *FileSystem, dir *File, name string, size int64) *File {
	t.Helper()
	f, err := fs.CreateFile(dir, name, size, 0)
	if err != nil {
		t.Fatalf("create %s (%d bytes): %v", name, size, err)
	}
	return f
}

func checkAll(t *testing.T, fs *FileSystem) {
	t.Helper()
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateSmallFile(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "a", 3000)
	if len(f.Blocks) != 1 || f.TailFrags != 3 {
		t.Errorf("3000-byte file: %d blocks, tail %d (want 1, 3)", len(f.Blocks), f.TailFrags)
	}
	checkAll(t, fs)
}

func TestCreateExactBlockFile(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "a", 8192)
	if len(f.Blocks) != 1 || f.TailFrags != 8 {
		t.Errorf("8KB file: %d blocks, tail %d", len(f.Blocks), f.TailFrags)
	}
	checkAll(t, fs)
}

func TestCreateTwoBlockFile(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "a", 9000)
	if len(f.Blocks) != 2 || f.TailFrags != 1 {
		t.Errorf("9000-byte file: %d blocks, tail %d (want 2, 1)", len(f.Blocks), f.TailFrags)
	}
	checkAll(t, fs)
}

func TestCreateZeroByteFile(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "empty", 0)
	if len(f.Blocks) != 0 || f.TailFrags != 0 || f.Size != 0 {
		t.Errorf("empty file has blocks: %+v", f)
	}
	checkAll(t, fs)
}

func TestCreateDuplicateName(t *testing.T) {
	fs := newSmallFs(t)
	mustCreate(t, fs, fs.Root(), "a", 100)
	if _, err := fs.CreateFile(fs.Root(), "a", 100, 0); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v, want ErrExists", err)
	}
}

func TestCreateFileContiguousOnEmptyFs(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "seq", 64<<10) // 8 blocks
	if len(f.Blocks) != 8 {
		t.Fatalf("blocks = %d", len(f.Blocks))
	}
	if !f.RunIsContiguous(0, 8, fs.fpb) {
		t.Errorf("64KB file on empty fs not contiguous: %v", f.Blocks)
	}
	checkAll(t, fs)
}

func TestIndirectBoundaryChangesGroup(t *testing.T) {
	fs := newSmallFs(t)
	// 13 blocks (104 KB): block 12 must live in a different group than
	// block 11, and a single indirect block must exist.
	f := mustCreate(t, fs, fs.Root(), "big", 104<<10)
	if len(f.Blocks) != 13 {
		t.Fatalf("blocks = %d, want 13", len(f.Blocks))
	}
	if len(f.Indirects) != 1 || f.Indirects[0].BeforeLbn != NDirect || f.Indirects[0].Level != 1 {
		t.Fatalf("indirects = %+v", f.Indirects)
	}
	cg11 := fs.cgIndexOf(f.Blocks[11])
	cg12 := fs.cgIndexOf(f.Blocks[12])
	if cg11 == cg12 {
		t.Errorf("blocks 11 and 12 both in cg %d; want a section switch", cg11)
	}
	if fs.cgIndexOf(f.Indirects[0].Addr) != cg12 {
		t.Errorf("indirect in cg %d, data in cg %d", fs.cgIndexOf(f.Indirects[0].Addr), cg12)
	}
	// The 13th block is never contiguous with the 12th: the paper's
	// mandatory seek.
	if f.Blocks[12] == f.Blocks[11]+Daddr(fs.fpb) {
		t.Error("block 12 contiguous with block 11 despite section switch")
	}
	checkAll(t, fs)
}

func TestNoIndirectAtTwelveBlocks(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "exact", 96<<10) // 12 blocks
	if len(f.Blocks) != 12 || len(f.Indirects) != 0 {
		t.Errorf("96KB file: %d blocks, %d indirects", len(f.Blocks), len(f.Indirects))
	}
	checkAll(t, fs)
}

func TestDoubleIndirectBoundary(t *testing.T) {
	p := smallParams()
	p.SizeBytes = 64 << 20
	p.NumCg = 4
	p.MaxBpg = 64 // shrink sections so the test fs stays small
	fs, err := NewFileSystem(p, nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// With 2048 pointers per indirect the double boundary is at block
	// 2060 — too big for a small fs. Use a fake by checking only the
	// maxbpg switch here: a 70-block file must switch groups at 64.
	f, err := fs.CreateFile(fs.Root(), "big", 70*8192, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fs.cgIndexOf(f.Blocks[63]) == fs.cgIndexOf(f.Blocks[64]) {
		t.Error("no group switch at maxbpg boundary")
	}
	if len(f.Indirects) != 1 {
		t.Errorf("indirects = %d, want 1 (single at 12)", len(f.Indirects))
	}
	checkAll(t, fs)
}

func TestAppendGrowsTailInPlace(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "grow", 1024) // 1 frag
	addr := f.Blocks[0]
	if err := fs.Append(f, 1024, 1); err != nil { // → 2 frags
		t.Fatal(err)
	}
	if f.Blocks[0] != addr {
		t.Errorf("tail moved on in-place extension")
	}
	if f.TailFrags != 2 || f.Size != 2048 {
		t.Errorf("tail %d size %d", f.TailFrags, f.Size)
	}
	if fs.Stats.FragExtends == 0 {
		t.Error("no fragextend recorded")
	}
	checkAll(t, fs)
}

func TestAppendRelocatesBlockedTail(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "grow", 1024)
	// Occupy the fragment right after the tail.
	c := fs.CgOf(f.Blocks[0])
	rel := c.relFrag(f.Blocks[0])
	c.mutateFrags(rel+1, rel+2, true)
	addr := f.Blocks[0]
	if err := fs.Append(f, 2048, 1); err != nil {
		t.Fatal(err)
	}
	if f.Blocks[0] == addr {
		t.Error("tail did not move despite blocker")
	}
	if fs.Stats.FragRelocations == 0 {
		t.Error("no relocation recorded")
	}
	// Undo the raw blocker so the extent check passes.
	c.mutateFrags(rel+1, rel+2, false)
	checkAll(t, fs)
}

func TestAppendPromotesTailToBlock(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "grow", 3000)
	if err := fs.Append(f, 20000, 1); err != nil {
		t.Fatal(err)
	}
	if f.Size != 23000 {
		t.Fatalf("size = %d", f.Size)
	}
	if len(f.Blocks) != 3 || f.TailFrags != fs.fragsForBytes(23000-2*8192) {
		t.Errorf("blocks %d tail %d", len(f.Blocks), f.TailFrags)
	}
	checkAll(t, fs)
}

func TestTruncateToZero(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "t", 200<<10)
	free := fs.FreeFrags()
	if err := fs.Truncate(f, 0, 1); err != nil {
		t.Fatal(err)
	}
	if f.Size != 0 || len(f.Blocks) != 0 || len(f.Indirects) != 0 {
		t.Errorf("truncate left %d blocks %d indirects", len(f.Blocks), len(f.Indirects))
	}
	if fs.FreeFrags() <= free {
		t.Error("truncate freed nothing")
	}
	checkAll(t, fs)
}

func TestTruncatePartial(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "t", 200<<10) // 25 blocks, indirect
	if err := fs.Truncate(f, 100<<10, 1); err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 13 || len(f.Indirects) != 1 {
		t.Errorf("13 blocks expected, got %d (%d indirects)", len(f.Blocks), len(f.Indirects))
	}
	checkAll(t, fs)
	if err := fs.Truncate(f, 50<<10, 2); err != nil { // 7 blocks: drop indirect
		t.Fatal(err)
	}
	if len(f.Blocks) != 7 || len(f.Indirects) != 0 {
		t.Errorf("7 blocks expected, got %d (%d indirects)", len(f.Blocks), len(f.Indirects))
	}
	checkAll(t, fs)
	if err := fs.Truncate(f, 1000, 3); err != nil { // 1 frag tail
		t.Fatal(err)
	}
	if len(f.Blocks) != 1 || f.TailFrags != 1 {
		t.Errorf("blocks %d tail %d", len(f.Blocks), f.TailFrags)
	}
	checkAll(t, fs)
	// Growing through Truncate is rejected.
	if err := fs.Truncate(f, 5000, 4); err == nil {
		t.Error("growing truncate succeeded")
	}
}

func TestDeleteFreesEverything(t *testing.T) {
	fs := newSmallFs(t)
	free := fs.FreeFrags()
	inodesFree := fs.Cg(0).NIFree()
	f := mustCreate(t, fs, fs.Root(), "d", 300<<10)
	if err := fs.Delete(f); err != nil {
		t.Fatal(err)
	}
	// Directory growth for the entry is not undone (FFS semantics), so
	// compare against the state captured before the create, allowing
	// the root directory to have grown.
	rootGrowth := int64(fs.Root().BlocksOnDisk(fs.fpb))*int64(fs.P.FragSize) - 1024
	_ = rootGrowth
	if got := fs.FreeFrags(); got < free-8 { // root may have grown a frag or two
		t.Errorf("free frags %d, want ≈ %d", got, free)
	}
	if fs.Cg(0).NIFree() != inodesFree {
		t.Errorf("inode not freed")
	}
	if _, ok := fs.Lookup(fs.Root(), "d"); ok {
		t.Error("entry survived delete")
	}
	checkAll(t, fs)
}

func TestDeleteDirectoryRules(t *testing.T) {
	fs := newSmallFs(t)
	d, err := fs.Mkdir(fs.Root(), "sub", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, fs, d, "child", 100)
	if err := fs.Delete(d); err == nil {
		t.Error("deleted non-empty directory")
	}
	child, _ := fs.Lookup(d, "child")
	if err := fs.Delete(child); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(d); err != nil {
		t.Errorf("delete empty dir: %v", err)
	}
	if err := fs.Delete(fs.Root()); err == nil {
		t.Error("deleted root")
	}
	checkAll(t, fs)
}

func TestDirprefSpreadsDirectories(t *testing.T) {
	fs := newSmallFs(t)
	seen := map[int]bool{}
	for i := 0; i < fs.NumCg(); i++ {
		d, err := fs.Mkdir(fs.Root(), fmt.Sprintf("d%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		seen[fs.InoToCg(d.Ino)] = true
	}
	if len(seen) != fs.NumCg() {
		t.Errorf("%d directories landed in %d groups; dirpref should spread them",
			fs.NumCg(), len(seen))
	}
	checkAll(t, fs)
}

func TestFilesInheritDirectoryGroup(t *testing.T) {
	fs := newSmallFs(t)
	d, _ := fs.Mkdir(fs.Root(), "sub", 0)
	dirCg := fs.InoToCg(d.Ino)
	f := mustCreate(t, fs, d, "f", 30<<10)
	if fs.InoToCg(f.Ino) != dirCg {
		t.Errorf("file inode in cg %d, dir in cg %d", fs.InoToCg(f.Ino), dirCg)
	}
	if fs.cgIndexOf(f.Blocks[0]) != dirCg {
		t.Errorf("file data in cg %d, dir in cg %d", fs.cgIndexOf(f.Blocks[0]), dirCg)
	}
	checkAll(t, fs)
}

func TestNoSpaceCleanup(t *testing.T) {
	p := smallParams()
	p.SizeBytes = 4 << 20 // tiny
	p.NumCg = 2
	fs, err := NewFileSystem(p, nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Ask for far more than fits.
	if _, err := fs.CreateFile(fs.Root(), "huge", 8<<20, 0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("create huge: %v, want ErrNoSpace", err)
	}
	if _, ok := fs.Lookup(fs.Root(), "huge"); ok {
		t.Error("failed create left an entry")
	}
	checkAll(t, fs)
	if fs.Stats.NoSpaceFailures == 0 {
		t.Error("no ENOSPC recorded")
	}
}

func TestMinfreeReserveHonoured(t *testing.T) {
	p := smallParams()
	p.SizeBytes = 8 << 20
	p.NumCg = 2
	fs, err := NewFileSystem(p, nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Fill until failure; utilization must stop near 1 - minfree.
	var i int
	for i = 0; i < 10000; i++ {
		if _, err := fs.CreateFile(fs.Root(), fmt.Sprintf("f%d", i), 64<<10, 0); err != nil {
			break
		}
	}
	u := fs.Utilization()
	if u > 0.92 || u < 0.80 {
		t.Errorf("utilization at ENOSPC = %v, want ≈ 0.90", u)
	}
	checkAll(t, fs)
}

func TestExtentsMergeContiguous(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "e", 56<<10) // one cluster
	ext := f.AppendDataExtents(nil, fs.fpb)
	if len(ext) != 1 || ext[0].Frags != 56 {
		t.Errorf("extents = %+v, want one 56-frag extent", ext)
	}
	if f.ExtentCount(fs.fpb) != 1 {
		t.Error("ExtentCount != 1")
	}
}

func TestReadSequenceIncludesIndirects(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "e", 104<<10) // 13 blocks + indirect
	seq := f.AppendReadSequence(nil, fs.fpb)
	metaSeen := false
	for i, e := range seq {
		if e.Meta {
			metaSeen = true
			// The indirect must come before the final data extent.
			if i == len(seq)-1 {
				t.Error("indirect block last in read sequence")
			}
		}
	}
	if !metaSeen {
		t.Error("no indirect block in read sequence")
	}
	var frags int
	for _, e := range seq {
		frags += e.Frags
	}
	if frags != f.BlocksOnDisk(fs.fpb)+fs.fpb {
		t.Errorf("sequence frags = %d, want data+indirect = %d", frags, f.BlocksOnDisk(fs.fpb)+fs.fpb)
	}
}

func TestCloneIndependence(t *testing.T) {
	fs := newSmallFs(t)
	mustCreate(t, fs, fs.Root(), "a", 30<<10)
	cl := fs.Clone()
	if err := cl.Check(); err != nil {
		t.Fatalf("clone inconsistent: %v", err)
	}
	// Mutate the clone; original must not change.
	freeBefore := fs.FreeFrags()
	mustCreateOn := func(fsys *FileSystem, name string) {
		if _, err := fsys.CreateFile(fsys.Root(), name, 100<<10, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustCreateOn(cl, "b")
	if fs.FreeFrags() != freeBefore {
		t.Error("mutating clone changed original free count")
	}
	if _, ok := fs.Lookup(fs.Root(), "b"); ok {
		t.Error("clone file visible in original")
	}
	checkAll(t, fs)
	checkAll(t, cl)
}

func TestPathNames(t *testing.T) {
	fs := newSmallFs(t)
	d, _ := fs.Mkdir(fs.Root(), "sub", 0)
	f := mustCreate(t, fs, d, "leaf", 10)
	if got := f.Path(); got != "/sub/leaf" {
		t.Errorf("Path = %q", got)
	}
}

func TestInodeDaddrWithinMetadata(t *testing.T) {
	fs := newSmallFs(t)
	f := mustCreate(t, fs, fs.Root(), "x", 10)
	d := fs.InodeDaddr(f.Ino)
	c := fs.CgOf(d)
	if rel := c.relFrag(d); rel >= c.metaFrags {
		t.Errorf("inode daddr %d (rel %d) outside metadata area (%d)", d, rel, c.metaFrags)
	}
}

// Property: a random workload of creates, appends, truncates and
// deletes leaves the file system fully consistent.
func TestQuickFileOpsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs, err := NewFileSystem(smallParams(), nopPolicy{})
		if err != nil {
			return false
		}
		var live []*File
		for op := 0; op < 150; op++ {
			switch {
			case len(live) > 0 && rng.Intn(4) == 0:
				k := rng.Intn(len(live))
				if err := fs.Delete(live[k]); err != nil {
					return false
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			case len(live) > 0 && rng.Intn(3) == 0:
				k := rng.Intn(len(live))
				newSize := rng.Int63n(live[k].Size + 1)
				if err := fs.Truncate(live[k], newSize, op); err != nil {
					return false
				}
			case len(live) > 0 && rng.Intn(3) == 0:
				k := rng.Intn(len(live))
				if err := fs.Append(live[k], rng.Int63n(64<<10), op); err != nil &&
					!errors.Is(err, ErrNoSpace) {
					return false
				}
			default:
				size := rng.Int63n(150 << 10)
				f, err := fs.CreateFile(fs.Root(), fmt.Sprintf("f%d", op), size, op)
				if errors.Is(err, ErrNoSpace) {
					continue
				}
				if err != nil {
					return false
				}
				live = append(live, f)
			}
		}
		return fs.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRename(t *testing.T) {
	fs := newSmallFs(t)
	a, _ := fs.Mkdir(fs.Root(), "a", 0)
	b, _ := fs.Mkdir(fs.Root(), "b", 0)
	f := mustCreate(t, fs, a, "doc", 30<<10)

	if err := fs.Rename(f, b, "doc2", 1); err != nil {
		t.Fatal(err)
	}
	if f.Path() != "/b/doc2" {
		t.Errorf("path = %q", f.Path())
	}
	if _, ok := fs.Lookup(a, "doc"); ok {
		t.Error("old entry survived")
	}
	if got, ok := fs.Lookup(b, "doc2"); !ok || got != f {
		t.Error("new entry missing")
	}
	checkAll(t, fs)

	// Same-directory rename.
	if err := fs.Rename(f, b, "doc3", 2); err != nil {
		t.Fatal(err)
	}
	if f.Path() != "/b/doc3" {
		t.Errorf("path = %q", f.Path())
	}
	checkAll(t, fs)
}

func TestRenameRejections(t *testing.T) {
	fs := newSmallFs(t)
	a, _ := fs.Mkdir(fs.Root(), "a", 0)
	sub, _ := fs.Mkdir(a, "sub", 0)
	f := mustCreate(t, fs, a, "doc", 10<<10)
	other := mustCreate(t, fs, sub, "doc", 10<<10)

	if err := fs.Rename(f, other, "x", 1); err == nil {
		t.Error("rename into a plain file accepted")
	}
	if err := fs.Rename(f, sub, "doc", 1); !errors.Is(err, ErrExists) {
		t.Errorf("clobbering rename: %v", err)
	}
	if err := fs.Rename(fs.Root(), a, "r", 1); err == nil {
		t.Error("renaming root accepted")
	}
	if err := fs.Rename(a, sub, "loop", 1); err == nil {
		t.Error("moving a directory into its descendant accepted")
	}
	checkAll(t, fs)
}
