package bench

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ffsage/internal/core"
	"ffsage/internal/disk"
	"ffsage/internal/ffs"
	"ffsage/internal/runner"
)

func smallImage(t *testing.T, policy ffs.Policy) *ffs.FileSystem {
	t.Helper()
	p := ffs.PaperParams()
	p.SizeBytes = 64 << 20
	p.NumCg = 8
	fsys, err := ffs.NewFileSystem(p, policy)
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

func TestSequentialIOBasics(t *testing.T) {
	img := smallImage(t, core.Realloc{})
	res, err := SequentialIO(img, disk.PaperParams(), 64<<10, 4<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NFiles != 64 {
		t.Errorf("NFiles = %d", res.NFiles)
	}
	if res.WriteBps <= 0 || res.ReadBps <= 0 {
		t.Fatalf("throughput %v / %v", res.WriteBps, res.ReadBps)
	}
	// On an empty image with realloc, 64 KB files lay out perfectly.
	if res.LayoutScore < 0.99 {
		t.Errorf("layout = %v, want ~1 on empty fs", res.LayoutScore)
	}
	// Reads benefit from the track buffer; writes pay sync metadata —
	// reads must be faster.
	if res.ReadBps <= res.WriteBps {
		t.Errorf("read %v not faster than write %v", res.ReadBps, res.WriteBps)
	}
	// The image itself must be untouched (benchmark runs on a clone).
	if _, ok := img.Lookup(img.Root(), "seq000"); ok {
		t.Error("benchmark mutated the input image")
	}
}

func TestSequentialIOSmallVsLargeWrites(t *testing.T) {
	img := smallImage(t, core.Realloc{})
	small, err := SequentialIO(img, disk.PaperParams(), 16<<10, 2<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	large, err := SequentialIO(img, disk.PaperParams(), 1<<20, 8<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Synchronous metadata dominates small creates: large-file writes
	// must be several times faster (Figure 4, bottom).
	if large.WriteBps < 2*small.WriteBps {
		t.Errorf("large write %v not ≫ small write %v", large.WriteBps, small.WriteBps)
	}
}

func TestSequentialIndirectCliff(t *testing.T) {
	img := smallImage(t, core.Realloc{})
	at96, err := SequentialIO(img, disk.PaperParams(), 96<<10, 4<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	at104, err := SequentialIO(img, disk.PaperParams(), 104<<10, 4<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The 13th block forces a seek to another cylinder group: read
	// throughput drops across the boundary (Figure 4's sharp dip).
	if at104.ReadBps >= at96.ReadBps {
		t.Errorf("no indirect cliff: 96KB %v ≤ 104KB %v", at96.ReadBps, at104.ReadBps)
	}
}

func TestSequentialIOValidation(t *testing.T) {
	img := smallImage(t, core.Original{})
	if _, err := SequentialIO(img, disk.PaperParams(), 0, 1<<20, 0); err == nil {
		t.Error("zero file size accepted")
	}
	if _, err := SequentialIO(img, disk.PaperParams(), 2<<20, 1<<20, 0); err == nil {
		t.Error("total < file size accepted")
	}
}

func TestSequentialSweep(t *testing.T) {
	img := smallImage(t, core.Original{})
	rs, err := SequentialSweep(img, disk.PaperParams(), []int64{16 << 10, 64 << 10}, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].FileSize != 16<<10 || rs[1].FileSize != 64<<10 {
		t.Errorf("sweep = %+v", rs)
	}
}

// TestSequentialSweepWorkersAgree runs the same sweep, forwards and
// backwards, on one and on two workers. Each size point copies the
// image into whichever scratch image an earlier point left, so under
// -race this checks both that concurrent points never share one and
// that a scratch image's history never leaks into a result.
func TestSequentialSweepWorkersAgree(t *testing.T) {
	img := smallImage(t, core.Realloc{})
	for i := 0; i < 120; i++ {
		if _, err := img.CreateFile(img.Root(), fmt.Sprintf("aged%03d", i), int64(i%7+1)*12<<10, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range img.Files() {
		if !f.IsDir && f.Ino%3 == 0 {
			if err := img.Delete(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	sizes := []int64{16 << 10, 96 << 10, 104 << 10, 1 << 20}
	sweep := func(workers int, sizes []int64) []SeqResult {
		runner.SetWorkers(workers)
		rs, err := SequentialSweep(img, disk.PaperParams(), sizes, 2<<20, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	defer runner.SetWorkers(0)
	want := sweep(1, sizes)
	backwards := slices.Clone(sizes)
	slices.Reverse(backwards)
	for _, workers := range []int{2, 1, 2} {
		if got := sweep(workers, sizes); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: sweep differs from 1 worker", workers)
		}
		got := sweep(workers, backwards)
		slices.Reverse(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers, sizes reversed: sweep differs from 1 worker", workers)
		}
	}
}

func TestPaperSizes(t *testing.T) {
	sizes := PaperSizes()
	if sizes[0] != 16<<10 || sizes[len(sizes)-1] != 32<<20 {
		t.Errorf("sweep bounds %d..%d", sizes[0], sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Error("sizes not increasing")
		}
	}
	has := func(want int64) bool {
		for _, s := range sizes {
			if s == want {
				return true
			}
		}
		return false
	}
	// The two cliffs the paper discusses must be sampled.
	if !has(96<<10) || !has(104<<10) || !has(64<<10) {
		t.Error("sweep misses 64/96/104 KB")
	}
}

func TestHotFiles(t *testing.T) {
	img := smallImage(t, core.Realloc{})
	// Old cold files and young hot files.
	for i, day := range []int{1, 2, 270, 280, 299} {
		name := []string{"a", "b", "c", "d", "e"}[i]
		if _, err := img.CreateFile(img.Root(), name, 50<<10, day); err != nil {
			t.Fatal(err)
		}
	}
	res, err := HotFiles(img, disk.PaperParams(), 270)
	if err != nil {
		t.Fatal(err)
	}
	if res.NFiles != 3 {
		t.Fatalf("hot files = %d, want 3", res.NFiles)
	}
	if res.TotalBytes != 3*50<<10 {
		t.Errorf("bytes = %d", res.TotalBytes)
	}
	if res.FracFiles < 0.59 || res.FracFiles > 0.61 {
		t.Errorf("frac files = %v, want 0.6", res.FracFiles)
	}
	if res.ReadBps <= 0 || res.WriteBps <= 0 || res.LayoutScore <= 0 {
		t.Errorf("result %+v", res)
	}
	if _, err := HotFiles(img, disk.PaperParams(), 400); err == nil {
		t.Error("empty hot set accepted")
	}
}

func TestRawThroughput(t *testing.T) {
	p := disk.PaperParams()
	read := RawThroughput(502<<20, p, 8<<20, false)
	write := RawThroughput(502<<20, p, 8<<20, true)
	if read <= write {
		t.Errorf("raw read %v not above raw write %v", read, write)
	}
	if read < 3e6 || read > 6e6 {
		t.Errorf("raw read %v outside plausible band", read)
	}
}

func TestRigRejectsOversizeFs(t *testing.T) {
	p := ffs.PaperParams()
	p.SizeBytes = 2 << 30
	p.NumCg = 64
	fsys, err := ffs.NewFileSystem(p, core.Original{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newRig(fsys, disk.PaperParams()); err == nil {
		t.Error("oversize fs accepted")
	}
}
