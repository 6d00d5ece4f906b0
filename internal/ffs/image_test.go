package ffs

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
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
	for _, f := range fs.Files() {
		ino := f.Ino
		g := got.FileByIno(ino)
		if g == nil {
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

// inodeTestImage returns a small file system whose root holds plain
// files at inodes 1–3 beside a subdirectory in another group, and its
// saved image, in which record i is inode i for i ≤ 3.
func inodeTestImage(tb testing.TB) (*FileSystem, []byte) {
	tb.Helper()
	fs, err := NewFileSystem(smallParams(), nopPolicy{})
	if err != nil {
		tb.Fatal(err)
	}
	for i, name := range []string{"a", "b", "c"} {
		if f, err := fs.CreateFile(fs.Root(), name, int64(i+1)*3000, 0); err != nil || f.Ino != i+1 {
			tb.Fatalf("create %s: ino %v, %v", name, f, err)
		}
	}
	d, err := fs.Mkdir(fs.Root(), "d", 0)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := fs.CreateFile(d, "e", 20000, 0); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fs.SaveImage(&buf); err != nil {
		tb.Fatal(err)
	}
	return fs, buf.Bytes()
}

// editImage decodes a saved image, applies edit and encodes it again.
func editImage(tb testing.TB, img []byte, edit func(*imageData)) []byte {
	tb.Helper()
	var d imageData
	if err := gob.NewDecoder(bytes.NewReader(img)).Decode(&d); err != nil {
		tb.Fatal(err)
	}
	edit(&d)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&d); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func resolveNop(string) (Policy, error) { return nopPolicy{}, nil }

// TestLoadImageInodeRange: an image record whose inode number lies
// outside [0, NumCg×ipg) fails a strict load with an error naming the
// inode, and a lenient load drops the record instead of crashing on it
// (negative numbers) or aliasing it onto a low inode (too large ones).
func TestLoadImageInodeRange(t *testing.T) {
	fs, img := inodeTestImage(t)
	n := fs.NumCg() * fs.InodesPerGroup()
	for _, bad := range []int{-1, -3 * fs.InodesPerGroup(), n + 2} {
		data := editImage(t, img, func(d *imageData) { d.Files[2].Ino = bad })
		t.Run(fmt.Sprintf("ino=%d/strict", bad), func(t *testing.T) {
			_, err := LoadImage(bytes.NewReader(data), nopPolicy{})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(bad)) {
				t.Fatalf("strict load: %v, want an error naming inode %d", err, bad)
			}
		})
		t.Run(fmt.Sprintf("ino=%d/lenient", bad), func(t *testing.T) {
			got, err := LoadImageLenient(bytes.NewReader(data), resolveNop)
			if err != nil {
				t.Fatal(err)
			}
			if got.FileCount() != fs.FileCount()-1 {
				t.Errorf("lenient load kept %d files, want %d", got.FileCount(), fs.FileCount()-1)
			}
			for _, f := range got.Files() {
				if f.Ino < 0 || f.Ino >= n {
					t.Errorf("lenient load kept inode %d", f.Ino)
				}
			}
			if _, err := got.Repair(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLoadImageParentRange: a parent inode number outside the inodes
// (other than the root's -1) makes the record an orphan: a strict load
// rejects it, and Repair reattaches it after a lenient one.
func TestLoadImageParentRange(t *testing.T) {
	fs, img := inodeTestImage(t)
	n := fs.NumCg() * fs.InodesPerGroup()
	for _, bad := range []int{-2, n, n + 2} {
		data := editImage(t, img, func(d *imageData) { d.Files[2].ParentIno = bad })
		if _, err := LoadImage(bytes.NewReader(data), nopPolicy{}); err == nil || !strings.Contains(err.Error(), "bad parent") {
			t.Errorf("parent %d: strict load: %v, want a bad-parent error", bad, err)
		}
		got, err := LoadImageLenient(bytes.NewReader(data), resolveNop)
		if err != nil {
			t.Fatalf("parent %d: %v", bad, err)
		}
		rep, err := got.Repair()
		if err != nil {
			t.Fatalf("parent %d: %v", bad, err)
		}
		if rep.ReattachedOrphans != 1 || got.FileCount() != fs.FileCount() {
			t.Errorf("parent %d: repair %v kept %d files, want one orphan reattached and %d files", bad, rep, got.FileCount(), fs.FileCount())
		}
	}
}

// FuzzLoadImageInodes overwrites one record's inode number and one
// record's parent inode number in a small saved image. The lenient
// loader must never panic; when it loads the image, Repair must leave
// it Check-clean, and a second Repair must find nothing to do.
func FuzzLoadImageInodes(f *testing.F) {
	fs, img := inodeTestImage(f)
	ipg, n := fs.InodesPerGroup(), fs.NumCg()*fs.InodesPerGroup()
	for _, ino := range []int{-1, -3 * ipg, n + 2} {
		f.Add(uint8(2), ino, uint8(2), 0)
	}
	for _, parent := range []int{-2, n, n + 2} {
		f.Add(uint8(2), 2, uint8(2), parent)
	}
	f.Fuzz(func(t *testing.T, rec uint8, ino int, parentRec uint8, parent int) {
		data := editImage(t, img, func(d *imageData) {
			d.Files[int(rec)%len(d.Files)].Ino = ino
			d.Files[int(parentRec)%len(d.Files)].ParentIno = parent
		})
		got, err := LoadImageLenient(bytes.NewReader(data), resolveNop)
		if err != nil {
			return
		}
		if _, err := got.Repair(); err != nil {
			t.Fatal(err)
		}
		if rep, err := got.Repair(); err != nil || rep.Any() {
			t.Fatalf("second repair: %v, %v", rep, err)
		}
	})
}
