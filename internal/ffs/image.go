package ffs

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
)

// Image serialization: an aged file system is fully reconstructible
// from its parameters and file table (every fragment's allocation state
// follows from the files' extents), so that is what SaveImage writes,
// plus the per-group allocation rotors and accumulated Stats so that a
// loaded image's future allocations are byte-for-byte identical to the
// in-memory original — checkpoint/resume depends on this.

type imageFile struct {
	Ino       int
	Name      string
	IsDir     bool
	Size      int64
	Blocks    []Daddr
	TailFrags int
	Indirects []Indirect
	ParentIno int // -1 for root
	CreateDay int
	ModDay    int
	SectionCg int
}

type imageData struct {
	Params     Params
	PolicyName string
	Files      []imageFile
	RootIno    int

	// Added for checkpoint/resume; absent (zero) in images written by
	// older versions, which gob decodes compatibly.
	Rotors        []int
	Stats         AllocStats
	IgnoreReserve bool
}

// SaveImage writes the file system to w.
func (fs *FileSystem) SaveImage(w io.Writer) error {
	img := imageData{
		Params:        fs.P,
		PolicyName:    fs.policy.Name(),
		RootIno:       fs.root.Ino,
		Stats:         fs.Stats,
		IgnoreReserve: fs.IgnoreReserve,
	}
	for _, c := range fs.cgs {
		img.Rotors = append(img.Rotors, c.rotor)
	}
	for _, f := range fs.files {
		parent := -1
		if f.Parent != nil {
			parent = f.Parent.Ino
		}
		img.Files = append(img.Files, imageFile{
			Ino:       f.Ino,
			Name:      f.Name,
			IsDir:     f.IsDir,
			Size:      f.Size,
			Blocks:    f.Blocks,
			TailFrags: f.TailFrags,
			Indirects: f.Indirects,
			ParentIno: parent,
			CreateDay: f.CreateDay,
			ModDay:    f.ModDay,
			SectionCg: f.sectionCg,
		})
	}
	sort.Slice(img.Files, func(i, j int) bool { return img.Files[i].Ino < img.Files[j].Ino })
	return gob.NewEncoder(w).Encode(&img)
}

// LoadImage reconstructs a file system from r under the given policy
// (the policy choice governs only future allocations; the image's
// layout is preserved exactly). The result is consistency-checked; a
// damaged image yields an error (possibly a *CorruptionError). Use
// LoadImageLenient + Repair to salvage one.
func LoadImage(r io.Reader, policy Policy) (*FileSystem, error) {
	return loadImage(r, func(string) (Policy, error) { return policy, nil }, false)
}

// LoadSavedImage is LoadImage under the policy the image was saved
// with: resolve maps the recorded policy name to a Policy.
func LoadSavedImage(r io.Reader, resolve func(name string) (Policy, error)) (*FileSystem, error) {
	return loadImage(r, resolve, false)
}

// LoadImageLenient reconstructs as much of an image as possible without
// validating it: extents are not claimed in the allocation maps, orphans
// and duplicate inodes are tolerated, and no consistency check runs.
// Like LoadSavedImage, it loads under the policy the image records,
// which resolve maps to a Policy. The result is NOT usable until
// Repair() has rebuilt the maps and counters from the file table;
// fsimg check -repair is the intended caller.
func LoadImageLenient(r io.Reader, resolve func(name string) (Policy, error)) (*FileSystem, error) {
	return loadImage(r, resolve, true)
}

// claimLenient marks [addr, addr+n) allocated where possible: fragments
// outside the file system, outside the group, or already claimed are
// skipped rather than faulted. Only the lenient image loader uses it;
// Repair rebuilds the maps authoritatively afterwards.
func (fs *FileSystem) claimLenient(addr Daddr, n int) {
	if n < 1 || n > fs.fpb {
		n = fs.fpb
	}
	var c *CylGroup
	for _, g := range fs.cgs {
		if addr >= g.startFrag && addr < g.startFrag+Daddr(g.nfrags) {
			c = g
			break
		}
	}
	if c == nil {
		return
	}
	lo := int(addr - c.startFrag)
	for i := lo; i < lo+n && i < c.nfrags; i++ {
		if c.free.Test(i) {
			c.mutateFrags(i, i+1, true)
		}
	}
}

func loadImage(r io.Reader, resolve func(string) (Policy, error), lenient bool) (fs *FileSystem, err error) {
	defer recoverCorruption(&err)
	var img imageData
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("ffs: decoding image: %w", err)
	}
	policy, err := resolve(img.PolicyName)
	if err != nil {
		return nil, err
	}
	fs, err = NewFileSystem(img.Params, policy)
	if err != nil {
		return nil, err
	}
	fs.IgnoreReserve = img.IgnoreReserve
	// Discard the fresh root; the image carries its own tree.
	fs.cgs[fs.InoToCg(fs.root.Ino)].ndir--
	fs.removeFile(fs.root)
	fs.root = nil

	// First pass: claim inodes and extents, build File objects.
	for _, inf := range img.Files {
		cg := fs.cgs[fs.InoToCg(inf.Ino)]
		slot := inf.Ino % fs.ipg
		if !cg.inodes.Test(slot) {
			if lenient {
				continue // duplicate inode: keep the first occurrence
			}
			return nil, fmt.Errorf("ffs: image reuses inode %d", inf.Ino)
		}
		cg.inodes.Clear(slot)
		cg.nifree--
		f := &File{
			Ino:       inf.Ino,
			Name:      inf.Name,
			IsDir:     inf.IsDir,
			Size:      inf.Size,
			Blocks:    inf.Blocks,
			TailFrags: inf.TailFrags,
			Indirects: inf.Indirects,
			CreateDay: inf.CreateDay,
			ModDay:    inf.ModDay,
			sectionCg: inf.SectionCg,
		}
		if f.IsDir {
			fs.cgs[fs.InoToCg(f.Ino)].ndir++
		}
		if !lenient {
			// Claiming a fragment twice (or out of range) panics with a
			// CorruptionError, recovered above into the returned error.
			for i, addr := range f.Blocks {
				n := fs.fpb
				if i == len(f.Blocks)-1 {
					n = f.TailFrags
				}
				c := fs.CgOf(addr)
				c.mutateFrags(c.relFrag(addr), c.relFrag(addr)+n, true)
			}
			for _, ind := range f.Indirects {
				c := fs.CgOf(ind.Addr)
				c.mutateFrags(c.relFrag(ind.Addr), c.relFrag(ind.Addr)+fs.fpb, true)
			}
			fs.relayout(f)
		} else {
			// Best-effort claims: skip conflicts and bad addresses so
			// Repair's group rebuild measures the image's real damage
			// instead of diffing against all-free maps.
			for i, addr := range f.Blocks {
				n := fs.fpb
				if i == len(f.Blocks)-1 {
					n = f.TailFrags
				}
				fs.claimLenient(addr, n)
			}
			for _, ind := range f.Indirects {
				fs.claimLenient(ind.Addr, fs.fpb)
			}
		}
		fs.files[f.Ino] = f
	}
	// Second pass: tree linkage.
	for _, inf := range img.Files {
		f, ok := fs.files[inf.Ino]
		if !ok {
			continue // skipped duplicate (lenient only)
		}
		if inf.ParentIno < 0 {
			if fs.root != nil {
				if lenient {
					continue // extra root becomes an orphan for Repair
				}
				return nil, fmt.Errorf("ffs: image has two roots")
			}
			fs.root = f
			continue
		}
		parent, ok := fs.files[inf.ParentIno]
		if !ok || !parent.IsDir {
			if lenient {
				continue // orphan; Repair reattaches it
			}
			return nil, fmt.Errorf("ffs: file %d has bad parent %d", inf.Ino, inf.ParentIno)
		}
		parent.putEntry(f.Name, f)
		f.Parent = parent
	}
	if fs.root == nil {
		if !lenient {
			return nil, fmt.Errorf("ffs: image has no root")
		}
		// Salvage: adopt the lowest-numbered directory as the root.
		rootIno := -1
		for ino, f := range fs.files {
			if f.IsDir && f.Parent == nil && (rootIno < 0 || ino < rootIno) {
				rootIno = ino
			}
		}
		if rootIno < 0 {
			return nil, fmt.Errorf("ffs: image has no directory usable as root")
		}
		fs.root = fs.files[rootIno]
	}
	for i, rot := range img.Rotors {
		if i < len(fs.cgs) {
			fs.cgs[i].rotor = rot
		}
	}
	fs.Stats = img.Stats
	if !lenient {
		if err := fs.Check(); err != nil {
			return nil, fmt.Errorf("ffs: loaded image inconsistent: %w", err)
		}
	}
	return fs, nil
}
