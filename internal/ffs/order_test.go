package ffs_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ffsage/internal/core"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
)

// TestWalksAreInInodeOrder churns files so that low inode slots are
// freed and reused in several groups. Every walk of the file table —
// Files(), layout.AllFiles, a clone's Files() and a saved image's
// records — must then come out strictly ascending by inode, and the
// clone must match the source file for file.
func TestWalksAreInInodeOrder(t *testing.T) {
	p := ffs.PaperParams()
	p.SizeBytes = 16 << 20
	p.NumCg = 4
	fs, err := ffs.NewFileSystem(p, core.Original{})
	if err != nil {
		t.Fatal(err)
	}
	var dirs []*ffs.File
	for i := range p.NumCg {
		d, err := fs.Mkdir(fs.Root(), fmt.Sprintf("d%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, d)
	}
	rng := rand.New(rand.NewSource(1))
	var live []*ffs.File
	highest := map[int]int{} // group → highest inode handed out so far
	reused := map[int]bool{} // groups where a create took a slot below it
	for op := range 600 {
		if len(live) > 0 && rng.Intn(5) < 2 {
			k := rng.Intn(len(live))
			if err := fs.Delete(live[k]); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, k, k+1)
			continue
		}
		f, err := fs.CreateFile(dirs[rng.Intn(len(dirs))], fmt.Sprint(op), rng.Int63n(3*int64(p.BlockSize)), op)
		if err != nil {
			t.Fatal(err)
		}
		cg := fs.InoToCg(f.Ino)
		if f.Ino < highest[cg] {
			reused[cg] = true
		}
		highest[cg] = max(highest[cg], f.Ino)
		live = append(live, f)
	}
	if len(reused) < 2 {
		t.Fatalf("churn reused low slots in %d groups, want several", len(reused))
	}

	ascending := func(what string, inos []int) {
		t.Helper()
		for i := 1; i < len(inos); i++ {
			if inos[i] <= inos[i-1] {
				t.Fatalf("%s: inode %d follows %d", what, inos[i], inos[i-1])
			}
		}
	}
	inosOf := func(files []*ffs.File) []int {
		inos := make([]int, len(files))
		for i, f := range files {
			inos[i] = f.Ino
		}
		return inos
	}
	files := fs.Files()
	if len(files) != len(live)+len(dirs)+1 {
		t.Fatalf("Files() holds %d files, want %d", len(files), len(live)+len(dirs)+1)
	}
	ascending("Files()", inosOf(files))
	plain := layout.AllFiles(fs)
	if len(plain) != len(live) {
		t.Fatalf("AllFiles holds %d files, want %d", len(plain), len(live))
	}
	ascending("layout.AllFiles", inosOf(plain))

	clone := fs.Clone()
	cfiles := clone.Files()
	ascending("clone Files()", inosOf(cfiles))
	if len(cfiles) != len(files) {
		t.Fatalf("clone holds %d files, source %d", len(cfiles), len(files))
	}
	for i, f := range files {
		g := cfiles[i]
		if g == f || g.Ino != f.Ino || g.Path() != f.Path() || g.IsDir != f.IsDir || g.Size != f.Size ||
			!slices.Equal(g.Blocks, f.Blocks) || !slices.Equal(g.Indirects, f.Indirects) {
			t.Fatalf("clone's file %d (%s) differs from the source's %d (%s)", g.Ino, g.Path(), f.Ino, f.Path())
		}
		if clone.FileByIno(f.Ino) != g {
			t.Fatalf("clone's FileByIno(%d) is not its file %d", f.Ino, g.Ino)
		}
	}

	var buf bytes.Buffer
	if err := fs.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	var img struct{ Files []struct{ Ino int } }
	if err := gob.NewDecoder(&buf).Decode(&img); err != nil {
		t.Fatal(err)
	}
	recs := make([]int, len(img.Files))
	for i, r := range img.Files {
		recs[i] = r.Ino
	}
	if !slices.Equal(recs, inosOf(files)) {
		t.Fatalf("image records %v, want the live inodes %v", recs, inosOf(files))
	}
}
