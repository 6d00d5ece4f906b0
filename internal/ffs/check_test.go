package ffs

import (
	"strings"
	"testing"
)

// Failure injection: each test corrupts one invariant on a healthy file
// system and verifies the checker reports it. A checker that cannot
// see corruption would silently vouch for broken simulations, so these
// are load-bearing tests.

// corruptibleFs builds a file system with enough structure for every
// corruption: directories, multi-block files, fragment tails, indirect
// blocks.
func corruptibleFs(t *testing.T) (*FileSystem, *File) {
	t.Helper()
	fs := newSmallFs(t)
	d, err := fs.Mkdir(fs.Root(), "d", 0)
	if err != nil {
		t.Fatal(err)
	}
	f := mustCreate(t, fs, d, "victim", 200<<10) // 25 blocks + indirect
	mustCreate(t, fs, d, "tail", 3<<10)
	if err := fs.Check(); err != nil {
		t.Fatalf("fixture unhealthy: %v", err)
	}
	return fs, f
}

func wantCheckError(t *testing.T, fs *FileSystem, fragment string) {
	t.Helper()
	err := fs.Check()
	if err == nil {
		t.Fatalf("checker missed corruption (want %q)", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("checker reported %q, want mention of %q", err, fragment)
	}
}

func TestCheckDetectsLeakedFragments(t *testing.T) {
	fs, f := corruptibleFs(t)
	// Mark an extra fragment allocated that no file owns.
	c := fs.CgOf(f.Blocks[0])
	idx := c.free.NextSet(0)
	c.free.Clear(idx) // bypass accounting entirely
	if err := fs.Check(); err == nil {
		t.Fatal("checker missed a leaked fragment")
	}
}

func TestCheckDetectsDoubleAllocation(t *testing.T) {
	fs, f := corruptibleFs(t)
	// Point two logical blocks of the file at the same disk blocks.
	old := f.Blocks[3]
	fs.freeRange(old, fs.fpb)
	f.Blocks[3] = f.Blocks[4]
	wantCheckError(t, fs, "doubly allocated")
}

func TestCheckDetectsCounterDrift(t *testing.T) {
	fs, _ := corruptibleFs(t)
	fs.Cg(1).nffree++
	wantCheckError(t, fs, "counters")
}

func TestCheckDetectsFrsumDrift(t *testing.T) {
	fs, _ := corruptibleFs(t)
	fs.Cg(0).frsum[3]++
	wantCheckError(t, fs, "frsum")
}

// driftFragRuns moves one fragRuns entry of group 0 to a block with no
// such run. frsum keeps the right count, so only the index cross-check
// can see the damage.
func driftFragRuns(fs *FileSystem) {
	c := fs.Cg(0)
	for k := 1; k < fs.fpb; k++ {
		if b := c.fragRuns[k].NextSet(0); b >= 0 {
			c.fragRuns[k].Clear(b)
			c.fragRuns[k].Set(c.blkfree.NextSet(0))
			return
		}
	}
	panic("fixture has no partial block in group 0")
}

func TestCheckDetectsFragRunsDrift(t *testing.T) {
	fs, _ := corruptibleFs(t)
	driftFragRuns(fs)
	wantCheckError(t, fs, "fragRuns")
}

func TestCheckDetectsClusterSumDrift(t *testing.T) {
	fs, _ := corruptibleFs(t)
	c := fs.Cg(2)
	c.clusterSum[fs.P.MaxContig]--
	c.clusterSum[1]++
	wantCheckError(t, fs, "clusterSum")
}

// driftClusterRuns flips one clusterRuns bit of group 2: a run of one
// block now seems to start at an allocated block. clusterSum keeps the
// right counts, so only the index cross-check can see the damage.
func driftClusterRuns(fs *FileSystem) {
	c := fs.Cg(2)
	c.clusterRuns[1].Set(c.blkfree.NextClear(0))
}

func TestCheckDetectsClusterRunsDrift(t *testing.T) {
	fs, _ := corruptibleFs(t)
	driftClusterRuns(fs)
	wantCheckError(t, fs, "clusterRuns")
}

func TestCheckDetectsBlockMapDrift(t *testing.T) {
	fs, _ := corruptibleFs(t)
	c := fs.Cg(2)
	// Flip a block-level bit without touching the fragment map or the
	// counters; only the map cross-check can see this.
	c.blkfree.Clear(c.blkfree.NextSet(0))
	wantCheckError(t, fs, "block free map")
}

func TestCheckDetectsSizeShapeMismatch(t *testing.T) {
	fs, f := corruptibleFs(t)
	f.Size += 9000 // size now implies one more block than mapped
	wantCheckError(t, fs, "blocks for size")
}

func TestCheckDetectsBadTail(t *testing.T) {
	fs, _ := corruptibleFs(t)
	var tail *File
	for _, f := range fs.Files() {
		if f.Name == "tail" {
			tail = f
		}
	}
	// Claim one more tail fragment than the size implies, keeping the
	// maps in sync so only the shape check can catch it.
	c := fs.CgOf(tail.Blocks[0])
	rel := c.relFrag(tail.Blocks[0])
	if !c.extendFrags(rel, tail.TailFrags, tail.TailFrags+1) {
		t.Skip("neighbouring fragment not free; fixture layout changed")
	}
	tail.TailFrags++
	wantCheckError(t, fs, "tail")
}

func TestCheckDetectsMissingIndirect(t *testing.T) {
	fs, f := corruptibleFs(t)
	fs.freeRange(f.Indirects[0].Addr, fs.fpb)
	f.Indirects = nil
	wantCheckError(t, fs, "indirect")
}

func TestCheckDetectsOrphanIndirect(t *testing.T) {
	fs, f := corruptibleFs(t)
	addr, _, err := fs.allocBlocksMech(0, NilDaddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Indirects = append(f.Indirects, Indirect{BeforeLbn: 5, Addr: addr, Level: 1})
	wantCheckError(t, fs, "indirect")
}

func TestCheckDetectsInodeBitmapDrift(t *testing.T) {
	fs, f := corruptibleFs(t)
	fs.ifree(f.Ino) // live file marked free
	wantCheckError(t, fs, "marked free")
}

func TestCheckDetectsNdirDrift(t *testing.T) {
	fs, _ := corruptibleFs(t)
	fs.Cg(0).ndir++
	wantCheckError(t, fs, "ndir")
}

func TestCheckDetectsBrokenDirLinkage(t *testing.T) {
	fs, f := corruptibleFs(t)
	f.Parent.deleteEntry(f.Name)
	wantCheckError(t, fs, "parent entry")
}

func TestCheckDetectsRenamedEntry(t *testing.T) {
	fs, f := corruptibleFs(t)
	parent := f.Parent
	parent.deleteEntry(f.Name)
	parent.putEntry("sneaky", f)
	// Caught either as a missing canonical entry or as a badly linked
	// alias, depending on which the checker reaches first.
	wantCheckError(t, fs, "entry")
}

func TestCheckDetectsStaleIndexSlot(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stale func(d *File, f *File)
	}{
		{"slot of another entry", func(d, f *File) {
			i, _ := d.slot(f.Name)
			d.entryIdx[f.Name] = int32((i + 1) % len(d.entries))
		}},
		{"slot past the table", func(d, f *File) { d.entryIdx[f.Name] = int32(len(d.entries)) }},
		{"name with no entry", func(d, f *File) { d.entryIdx["ghost"] = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, f := corruptibleFs(t)
			tc.stale(f.Parent, f)
			wantCheckError(t, fs, "index")
		})
	}
}
