package ffs

import (
	"bytes"
	"fmt"
	"testing"
)

func TestImageRoundTrip(t *testing.T) {
	fs := newSmallFs(t)
	d, err := fs.Mkdir(fs.Root(), "sub", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range []int64{0, 3000, 9000, 96 << 10, 300 << 10} {
		if _, err := fs.CreateFile(d, fmt.Sprintf("f%d", i), size, i); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := fs.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadImage(&buf, nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
	if got.FileCount() != fs.FileCount() {
		t.Errorf("files %d vs %d", got.FileCount(), fs.FileCount())
	}
	if got.FreeFrags() != fs.FreeFrags() {
		t.Errorf("free frags %d vs %d", got.FreeFrags(), fs.FreeFrags())
	}
	if a, b := got.derived, fs.derived; a != b {
		t.Errorf("Params cache %+v vs %+v", a, b)
	}
	// Every file's layout survives bit-exactly.
	for ino, f := range fs.Files() {
		g, ok := got.Files()[ino]
		if !ok {
			t.Fatalf("ino %d missing", ino)
		}
		if g.Size != f.Size || g.TailFrags != f.TailFrags || len(g.Blocks) != len(f.Blocks) {
			t.Fatalf("ino %d shape differs", ino)
		}
		for i := range f.Blocks {
			if g.Blocks[i] != f.Blocks[i] {
				t.Fatalf("ino %d block %d: %d vs %d", ino, i, g.Blocks[i], f.Blocks[i])
			}
		}
		if g.Path() != f.Path() {
			t.Fatalf("ino %d path %q vs %q", ino, g.Path(), f.Path())
		}
	}
	// The loaded image keeps working: create and delete on it.
	nf, err := got.CreateFile(got.Root(), "after", 50<<10, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Delete(nf); err != nil {
		t.Fatal(err)
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	if _, err := LoadImage(bytes.NewReader([]byte("not a gob")), nopPolicy{}); err == nil {
		t.Error("garbage accepted")
	}
}
