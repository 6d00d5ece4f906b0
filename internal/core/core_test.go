package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ffsage/internal/ffs"
)

func smallParams() ffs.Params {
	p := ffs.PaperParams()
	p.SizeBytes = 16 << 20
	p.NumCg = 4
	return p
}

func newFs(t *testing.T, policy ffs.Policy) *ffs.FileSystem {
	t.Helper()
	fs, err := ffs.NewFileSystem(smallParams(), policy)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// fragmentGroup fills the root's cylinder group completely with
// single-block files, then frees a checkerboard of one-block holes and
// one contiguous run of clusterLen blocks. Subsequent allocations in
// the group must choose between the scattered holes (what the original
// policy's first-free search takes) and the lone cluster (what the
// realloc policy finds through the cluster summary).
func fragmentGroup(t *testing.T, fs *ffs.FileSystem, clusterLen int) {
	t.Helper()
	bs := int64(fs.P.BlockSize)
	fpb := fs.FragsPerBlock()
	var fill []*ffs.File
	for i := 0; fs.Cg(0).NBFree() > 0; i++ {
		f, err := fs.CreateFile(fs.Root(), fmt.Sprintf("fill%d", i), bs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fs.CgOf(f.Blocks[0]).Index == 0 {
			fill = append(fill, f)
		}
	}
	if len(fill) < 60+2*clusterLen {
		t.Fatalf("only %d fill files landed in group 0", len(fill))
	}
	// One-block holes.
	for i := 10; i < 50; i += 2 {
		if err := fs.Delete(fill[i]); err != nil {
			t.Fatal(err)
		}
	}
	// One contiguous free run: find consecutive-block files past the
	// checkerboard region and free them together.
	for j := 52; j+clusterLen < len(fill); j++ {
		ok := true
		for k := 1; k < clusterLen; k++ {
			if fill[j+k].Blocks[0] != fill[j].Blocks[0]+ffs.Daddr(k*fpb) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for k := 0; k < clusterLen; k++ {
			if err := fs.Delete(fill[j+k]); err != nil {
				t.Fatal(err)
			}
		}
		probe := clusterLen
		if probe > fs.P.MaxContig {
			probe = fs.P.MaxContig
		}
		if !fs.Cg(0).HasCluster(probe) {
			t.Fatal("freed run did not register as a cluster")
		}
		return
	}
	t.Fatal("no consecutive fill files found for the cluster")
}

func TestPolicyNames(t *testing.T) {
	if (Original{}).Name() != "ffs" {
		t.Error((Original{}).Name())
	}
	if (Realloc{}).Name() != "ffs+realloc" {
		t.Error(Realloc{}.Name())
	}
	if (Realloc{ReallocSingleBlocks: true}).Name() != "ffs+realloc(single)" {
		t.Error("single-block variant name")
	}
	if (Realloc{Fit: ffs.FirstFit}).Name() != "ffs+firstfit" || (Realloc{Fit: ffs.BestFit}).Name() != "ffs+bestfit" {
		t.Error("fit variant names")
	}
}

func TestOriginalLeavesFragmentedLayout(t *testing.T) {
	fs := newFs(t, Original{})
	fragmentGroup(t, fs, 8)
	// A 4-block file allocated into 1-block holes cannot be contiguous
	// under the original policy, even though an 8-block cluster exists.
	f, err := fs.CreateFile(fs.Root(), "victim", 4*int64(fs.P.BlockSize), 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.RunIsContiguous(0, 4, fs.FragsPerBlock()) {
		t.Fatalf("original policy produced a contiguous file in checkerboard free space: %v", f.Blocks)
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestReallocRescuesFragmentedRun(t *testing.T) {
	fs := newFs(t, Realloc{})
	fragmentGroup(t, fs, 8)
	// The same 4-block file: initial allocation lands in the holes,
	// but FlushCluster must relocate the run into the free expanse
	// beyond the checkerboard.
	f, err := fs.CreateFile(fs.Root(), "victim", 4*int64(fs.P.BlockSize), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !f.RunIsContiguous(0, 4, fs.FragsPerBlock()) {
		t.Fatalf("realloc failed to cluster the file: %v", f.Blocks)
	}
	if fs.Stats.ClusterMoves == 0 {
		t.Error("no cluster move recorded")
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestReallocChainsClustersEndToEnd(t *testing.T) {
	fs := newFs(t, Realloc{})
	// A 12-block file needs two clusters (7 + 5); realloc should chain
	// them into one 12-block contiguous run on an empty group.
	f, err := fs.CreateFile(fs.Root(), "chain", 96<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !f.RunIsContiguous(0, 12, fs.FragsPerBlock()) {
		t.Fatalf("two clusters did not chain: extents %d", f.ExtentCount(fs.FragsPerBlock()))
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestReallocTwoBlockQuirk(t *testing.T) {
	fs := newFs(t, Realloc{})
	fragmentGroup(t, fs, 8)
	// 9 KB: one full block plus a 1-fragment tail. The flush run is a
	// single block, so the clustering code never engages and the file
	// may stay split — exactly the paper's two-block-file dip.
	before := fs.Stats.ClusterMoves
	if _, err := fs.CreateFile(fs.Root(), "two", 9<<10, 1); err != nil {
		t.Fatal(err)
	}
	if fs.Stats.ClusterMoves != before {
		t.Error("realloc engaged for a file that never filled its second block")
	}
	// A 16 KB file (two full blocks) does engage it.
	f, err := fs.CreateFile(fs.Root(), "full", 16<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !f.RunIsContiguous(0, 2, fs.FragsPerBlock()) {
		t.Error("16KB file not clustered")
	}
}

func TestReallocSkipsWellPlacedRuns(t *testing.T) {
	fs := newFs(t, Realloc{})
	if _, err := fs.CreateFile(fs.Root(), "seq", 56<<10, 0); err != nil {
		t.Fatal(err)
	}
	// On an empty file system the initial allocation is already
	// perfect; no moves should happen.
	if fs.Stats.ClusterMoves != 0 {
		t.Errorf("ClusterMoves = %d on empty fs, want 0", fs.Stats.ClusterMoves)
	}
}

func TestReallocAggregateAdvantage(t *testing.T) {
	// Random create/delete churn on both policies: realloc must end
	// with a clearly higher fraction of contiguous blocks.
	frag := func(policy ffs.Policy) (contig, total int) {
		fs, err := ffs.NewFileSystem(smallParams(), policy)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		var live []*ffs.File
		for op := 0; op < 600; op++ {
			if len(live) > 20 && rng.Intn(5) < 2 {
				k := rng.Intn(len(live))
				if err := fs.Delete(live[k]); err != nil {
					t.Fatal(err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			size := 1 << (10 + rng.Intn(7)) // 1KB..64KB
			f, err := fs.CreateFile(fs.Root(), fmt.Sprintf("f%d", op), int64(size), op)
			if err != nil {
				continue
			}
			live = append(live, f)
		}
		if err := fs.Check(); err != nil {
			t.Fatal(err)
		}
		fpb := fs.FragsPerBlock()
		for _, f := range live {
			for i := 1; i < len(f.Blocks); i++ {
				total++
				if f.Blocks[i] == f.Blocks[i-1]+ffs.Daddr(fpb) {
					contig++
				}
			}
		}
		return contig, total
	}
	oc, ot := frag(Original{})
	rc, rt := frag(Realloc{})
	orig := float64(oc) / float64(ot)
	re := float64(rc) / float64(rt)
	t.Logf("layout: original %.3f (%d/%d), realloc %.3f (%d/%d)", orig, oc, ot, re, rc, rt)
	if re <= orig {
		t.Errorf("realloc layout %.3f not better than original %.3f", re, orig)
	}
}

func TestReallocSingleBlocksVariant(t *testing.T) {
	fs := newFs(t, Realloc{ReallocSingleBlocks: true})
	if _, err := fs.CreateFile(fs.Root(), "f", 30<<10, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestReallocMovesContiguousRunWithinPrefGroup pins a behaviour the
// exhibits depend on: when a run is already contiguous but its chained
// slot (the block after the file's previous cluster) is taken,
// TryReallocRun does not give up — it falls back to a search of pref's
// whole group, so the run still moves there.
func TestReallocMovesContiguousRunWithinPrefGroup(t *testing.T) {
	fs := newFs(t, Original{}) // no relocation while setting up
	fpb := fs.FragsPerBlock()
	f, err := fs.CreateFile(fs.Root(), "f", 11*int64(fs.P.BlockSize), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !f.RunIsContiguous(0, 11, fpb) {
		t.Fatalf("setup: file not contiguous on an empty fs: %v", f.Blocks)
	}
	cg := fs.CgIndexOfAddr(f.Blocks[0])
	pref := f.Blocks[6] + ffs.Daddr(fpb)
	// Move blocks [7, 11) to a contiguous spot mid-group, then park a
	// one-block file in the chained slot they vacated.
	b := fs.Cg(cg).FindFreeRun(7, ffs.LargestFit)
	away := fs.BlockAddr(cg, b+20)
	if !fs.TryReallocRun(f, 7, 11, cg, away) || f.Blocks[7] != away {
		t.Fatalf("setup: could not move the run to %d: %v", away, f.Blocks)
	}
	blocker, err := fs.CreateFile(fs.Root(), "blocker", int64(fs.P.BlockSize), 0)
	if err != nil {
		t.Fatal(err)
	}
	if blocker.Blocks[0] != pref && !fs.TryReallocRun(blocker, 0, 1, cg, pref) {
		t.Fatal("setup: could not occupy the chained slot")
	}
	if blocker.Blocks[0] != pref {
		t.Fatalf("setup: blocker at %d, want the chained slot %d", blocker.Blocks[0], pref)
	}
	if got, _ := fs.ReallocPref(f, 7); got != pref {
		t.Fatalf("setup: ReallocPref = %d, want %d", got, pref)
	}

	moves := fs.Stats.ClusterMoves
	Realloc{}.FlushCluster(fs, f, 7, 11)
	if fs.Stats.ClusterMoves != moves+1 {
		t.Fatalf("contiguous run with an occupied chained slot was not moved (moves %d → %d)", moves, fs.Stats.ClusterMoves)
	}
	if f.Blocks[7] == away || f.Blocks[7] == pref {
		t.Errorf("run at %d after the move; want a new spot other than %d and the taken slot %d", f.Blocks[7], away, pref)
	}
	if got := fs.CgIndexOfAddr(f.Blocks[7]); got != cg {
		t.Errorf("run moved to group %d, want pref's group %d", got, cg)
	}
	if !f.RunIsContiguous(7, 11, fpb) {
		t.Errorf("moved run is not contiguous: %v", f.Blocks[7:])
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}
