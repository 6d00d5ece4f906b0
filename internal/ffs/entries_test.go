package ffs

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// sortedTable is the directory table as it was before the name index:
// entries sorted by name, found by binary search, inserted and deleted
// by memmove. It maps names to inode numbers so one model serves a
// file system and its clones. Kept as the differential oracle.
type sortedTable struct {
	names []string
	inos  []int
}

func (d *sortedTable) find(name string) (int, bool) {
	lo, hi := 0, len(d.names)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.names[mid] < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(d.names) && d.names[lo] == name
}

func (d *sortedTable) lookup(name string) (int, bool) {
	if i, ok := d.find(name); ok {
		return d.inos[i], true
	}
	return 0, false
}

func (d *sortedTable) put(name string, ino int) {
	i, ok := d.find(name)
	if ok {
		d.inos[i] = ino
		return
	}
	d.names = slices.Insert(d.names, i, name)
	d.inos = slices.Insert(d.inos, i, ino)
}

func (d *sortedTable) delete(name string) {
	if i, ok := d.find(name); ok {
		d.names = slices.Delete(d.names, i, i+1)
		d.inos = slices.Delete(d.inos, i, i+1)
	}
}

// sameTable reports how dir's entries differ from the model, as sorted
// (name, ino) lists. It reads the table only, so a clone's next
// operation still meets an index it has to build.
func sameTable(dir *File, model *sortedTable) error {
	type ent struct {
		name string
		ino  int
	}
	var got []ent
	for _, e := range dir.entries {
		got = append(got, ent{e.name, e.file.Ino})
	}
	slices.SortFunc(got, func(a, b ent) int { return strings.Compare(a.name, b.name) })
	if len(got) != len(model.names) {
		return fmt.Errorf("dir %s: %d entries, model %d", dir.Path(), len(got), len(model.names))
	}
	for i, e := range got {
		if e.name != model.names[i] || e.ino != model.inos[i] {
			return fmt.Errorf("dir %s: entry %d is %q→%d, model %q→%d",
				dir.Path(), i, e.name, e.ino, model.names[i], model.inos[i])
		}
	}
	return nil
}

// TestDirTableMatchesSortedModel runs a seeded stream of creates,
// mkdirs, deletes, renames, lookups and clones against the sorted-slice
// table as the reference model. After every step each directory must
// hold the model's entries, every lookup must agree with the model, and
// at checkpoints the file system must be Check-clean. Names come from a
// small pool so creates and renames collide, and clones continue the
// stream on the copy, whose name indexes are built on first use.
func TestDirTableMatchesSortedModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := newSmallFs(t)
		model := map[int]*sortedTable{fs.Root().Ino: {}}
		dirs := []int{fs.Root().Ino}
		var plain []int
		name := func() string {
			if rng.Intn(8) == 0 {
				return fmt.Sprintf("a-rather-long-entry-name-%03d", rng.Intn(20))
			}
			return fmt.Sprintf("n%d", rng.Intn(40))
		}
		file := func(ino int) *File { return fs.Files()[ino] }
		clones := 0
		for op := range 3000 {
			dir := dirs[rng.Intn(len(dirs))]
			switch r := rng.Intn(20); {
			case r < 6:
				n := name()
				f, err := fs.CreateFile(file(dir), n, rng.Int63n(3*int64(fs.P.BlockSize)), op)
				if _, exists := model[dir].lookup(n); exists != errors.Is(err, ErrExists) {
					t.Fatalf("seed %d op %d: create %q: err %v, model has it %v", seed, op, n, err, exists)
				}
				if err == nil {
					model[dir].put(n, f.Ino)
					plain = append(plain, f.Ino)
				} else if !errors.Is(err, ErrExists) {
					t.Fatal(err)
				}
			case r < 7 && len(dirs) < 12:
				n := name()
				d, err := fs.Mkdir(file(dir), n, op)
				if _, exists := model[dir].lookup(n); exists != errors.Is(err, ErrExists) {
					t.Fatalf("seed %d op %d: mkdir %q: err %v, model has it %v", seed, op, n, err, exists)
				}
				if err == nil {
					model[dir].put(n, d.Ino)
					model[d.Ino] = &sortedTable{}
					dirs = append(dirs, d.Ino)
				}
			case r < 11 && len(plain) > 0:
				k := rng.Intn(len(plain))
				f := file(plain[k])
				model[f.Parent.Ino].delete(f.Name)
				if err := fs.Delete(f); err != nil {
					t.Fatal(err)
				}
				plain = slices.Delete(plain, k, k+1)
			case r < 15 && len(plain) > 0:
				f := file(plain[rng.Intn(len(plain))])
				oldDir, oldName, n := f.Parent.Ino, f.Name, name()
				err := fs.Rename(f, file(dir), n, op)
				if _, exists := model[dir].lookup(n); exists != errors.Is(err, ErrExists) {
					t.Fatalf("seed %d op %d: rename to %q: err %v, model has it %v", seed, op, n, err, exists)
				}
				if err == nil {
					model[oldDir].delete(oldName)
					model[dir].put(n, f.Ino)
				}
			case r < 19:
				n := name()
				f, ok := fs.Lookup(file(dir), n)
				ino, want := model[dir].lookup(n)
				if ok != want || (ok && f.Ino != ino) {
					t.Fatalf("seed %d op %d: lookup %q = %v, model %v", seed, op, n, ok, want)
				}
			default:
				fs = fs.Clone()
				clones++
			}
			for _, d := range dirs {
				if err := sameTable(file(d), model[d]); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
			if op%250 == 0 {
				if err := fs.Check(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
		}
		if err := fs.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if clones == 0 {
			t.Fatalf("seed %d: the stream never cloned", seed)
		}
	}
}

// TestDirTableChurnAllocatesNothing pins the steady replay loop's
// zero-allocation property at the table: once a directory holds its
// eight names, deleting and re-adding them — every delete moving the
// last entry into the hole — touches the heap zero times.
func TestDirTableChurnAllocatesNothing(t *testing.T) {
	d := &File{Name: "d", IsDir: true}
	var names []string
	var files []*File
	for i := range 8 {
		names = append(names, fmt.Sprintf("f%d", i))
		files = append(files, &File{Name: names[i]})
		d.putEntry(names[i], files[i])
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for round := range 100 {
		for i := range names {
			k := (i + round) % len(names)
			d.deleteEntry(names[k])
			d.putEntry(names[k], files[k])
		}
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Fatalf("delete/put churn on an eight-entry directory made %d allocations", n)
	}
	if err := d.indexDrift(); err != nil {
		t.Fatal(err)
	}
}
