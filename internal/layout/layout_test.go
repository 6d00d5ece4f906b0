package layout

import (
	"testing"

	"ffsage/internal/core"
	"ffsage/internal/ffs"
	"ffsage/internal/stats"
)

const fpb = 8

// fileWithBlocks fabricates a file whose block addresses are given in
// block units (multiplied out to fragment addresses).
func fileWithBlocks(size int64, blockAddrs ...int64) *ffs.File {
	f := &ffs.File{Size: size, TailFrags: fpb}
	for _, b := range blockAddrs {
		f.Blocks = append(f.Blocks, ffs.Daddr(b*fpb))
	}
	return f
}

func TestFileScorePerfect(t *testing.T) {
	f := fileWithBlocks(4*8192, 10, 11, 12, 13)
	s, n, ok := FileScore(f, fpb)
	if !ok || s != 1.0 || n != 3 {
		t.Errorf("score=%v n=%d ok=%v, want 1.0 3 true", s, n, ok)
	}
}

func TestFileScoreWorst(t *testing.T) {
	f := fileWithBlocks(3*8192, 10, 20, 30)
	s, _, ok := FileScore(f, fpb)
	if !ok || s != 0.0 {
		t.Errorf("score=%v, want 0", s)
	}
}

func TestFileScoreMixed(t *testing.T) {
	// 10,11 contiguous; 20 not; 21 contiguous → 2/3.
	f := fileWithBlocks(4*8192, 10, 11, 20, 21)
	s, n, _ := FileScore(f, fpb)
	if n != 3 || s < 0.66 || s > 0.67 {
		t.Errorf("score=%v n=%d, want 2/3 of 3", s, n)
	}
}

func TestFileScoreUndefined(t *testing.T) {
	if _, _, ok := FileScore(fileWithBlocks(8192, 10), fpb); ok {
		t.Error("one-block file has a defined score")
	}
	if _, _, ok := FileScore(fileWithBlocks(0), fpb); ok {
		t.Error("empty file has a defined score")
	}
}

func TestAggregateWeightsByBlocks(t *testing.T) {
	// One perfect 2-block file (1 scoreable) + one broken 11-block file
	// (10 scoreable, 0 optimal) → 1/11.
	files := []*ffs.File{
		fileWithBlocks(2*8192, 10, 11),
		fileWithBlocks(11*8192, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1100),
	}
	got := Aggregate(files, fpb)
	want := 1.0 / 11.0
	if got < want-1e-9 || got > want+1e-9 {
		t.Errorf("aggregate = %v, want %v", got, want)
	}
}

func TestAggregateEmpty(t *testing.T) {
	if got := Aggregate(nil, fpb); got != 1.0 {
		t.Errorf("empty aggregate = %v, want 1", got)
	}
}

func TestBySize(t *testing.T) {
	buckets := stats.PowerOfTwoBuckets(16<<10, 64<<10)
	files := []*ffs.File{
		fileWithBlocks(16<<10, 10, 11),         // 16KB perfect
		fileWithBlocks(16<<10, 20, 30),         // 16KB broken
		fileWithBlocks(32<<10, 40, 41, 42, 43), // 32KB perfect
		fileWithBlocks(8192, 99),               // unscoreable
	}
	got := BySize(files, fpb, buckets)
	if got[0].Files != 2 || got[0].Blocks != 2 || got[0].Score != 0.5 {
		t.Errorf("16KB bucket = %+v", got[0])
	}
	if got[1].Files != 1 || got[1].Score != 1.0 {
		t.Errorf("32KB bucket = %+v", got[1])
	}
	if got[2].Files != 0 {
		t.Errorf("64KB bucket = %+v", got[2])
	}
}

func TestOnRealFileSystem(t *testing.T) {
	p := ffs.PaperParams()
	p.SizeBytes = 16 << 20
	p.NumCg = 4
	fsys, err := ffs.NewFileSystem(p, core.Realloc{})
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range []int64{16 << 10, 56 << 10, 5 << 10, 100 << 10} {
		if _, err := fsys.CreateFile(fsys.Root(), string(rune('a'+i)), size, i); err != nil {
			t.Fatal(err)
		}
	}
	files := AllFiles(fsys)
	if len(files) != 4 {
		t.Fatalf("AllFiles = %d", len(files))
	}
	// On an empty fs with realloc, everything except the post-indirect
	// block should be contiguous; aggregate well above 0.9.
	if agg := FsAggregate(fsys); agg < 0.9 {
		t.Errorf("fresh-fs aggregate = %v", agg)
	}
	if tb := TotalBytes(files); tb != (16+56+5+100)<<10 {
		t.Errorf("TotalBytes = %d", tb)
	}
}

func TestHotFiles(t *testing.T) {
	p := ffs.PaperParams()
	p.SizeBytes = 16 << 20
	p.NumCg = 4
	fsys, err := ffs.NewFileSystem(p, core.Original{})
	if err != nil {
		t.Fatal(err)
	}
	old, _ := fsys.CreateFile(fsys.Root(), "old", 10<<10, 5)
	hot1, _ := fsys.CreateFile(fsys.Root(), "hot1", 10<<10, 270)
	hot2, _ := fsys.CreateFile(fsys.Root(), "hot2", 10<<10, 299)
	_ = old
	got := HotFiles(fsys, 270)
	if len(got) != 2 {
		t.Fatalf("hot = %d files", len(got))
	}
	seen := map[*ffs.File]bool{got[0]: true, got[1]: true}
	if !seen[hot1] || !seen[hot2] {
		t.Error("wrong hot set")
	}
}

func TestIntraFileSeeks(t *testing.T) {
	// A perfect 3-block file: zero seeks. A fully scattered one: two.
	perfect := fileWithBlocks(3*8192, 10, 11, 12)
	broken := fileWithBlocks(3*8192, 10, 20, 30)
	if got := IntraFileSeeks([]*ffs.File{perfect}, fpb); got != 0 {
		t.Errorf("perfect file seeks = %d", got)
	}
	if got := IntraFileSeeks([]*ffs.File{broken}, fpb); got != 2 {
		t.Errorf("broken file seeks = %d, want 2", got)
	}
	if got := IntraFileSeeks([]*ffs.File{perfect, broken}, fpb); got != 2 {
		t.Errorf("combined seeks = %d, want 2", got)
	}
	// An indirect block outside the stream adds a seek on each side.
	withInd := fileWithBlocks(14*8192, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 100, 101)
	withInd.Indirects = []ffs.Indirect{{BeforeLbn: 12, Addr: ffs.Daddr(99 * fpb), Level: 1}}
	// blocks 0..11 contiguous; indirect at 99; data 100,101 contiguous:
	// transitions: 21→ind (seek), ind(99+1=100)→100 contiguous → 1 seek.
	if got := IntraFileSeeks([]*ffs.File{withInd}, fpb); got != 1 {
		t.Errorf("indirect seeks = %d, want 1", got)
	}
}
