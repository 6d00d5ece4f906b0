package ffs

import "ffsage/internal/bitset"

// Clone returns a deep copy of the file system, sharing nothing with
// the original except the read-only pattern table. The benchmark
// harness clones each aged image so every benchmark run starts from
// identical state, the way the paper reran its benchmarks on freshly
// restored aged file systems. Every File in the copy is freshly
// allocated, from slabs private to the copy — nothing aliases the
// source's recycling pool, so the clone is safe to use from another
// goroutine.
func (fs *FileSystem) Clone() *FileSystem {
	c := &FileSystem{
		P:           fs.P,
		fpb:         fs.fpb,
		ipg:         fs.ipg,
		files:       make(map[int]*File, len(fs.files)),
		policy:      fs.policy,
		Stats:       fs.Stats,
		layoutOpt:   fs.layoutOpt,
		layoutTotal: fs.layoutTotal,
		patterns:    fs.patterns, // immutable after construction
		freeFrags:   fs.freeFrags,
		freeBlks:    fs.freeBlks,
		derived:     fs.derived,
		pooling:     fs.pooling,
	}
	c.IgnoreReserve = fs.IgnoreReserve
	for _, g := range fs.cgs {
		c.cgs = append(c.cgs, &CylGroup{
			fs:          c,
			Index:       g.Index,
			startFrag:   g.startFrag,
			nfrags:      g.nfrags,
			nblk:        g.nblk,
			metaFrags:   g.metaFrags,
			free:        g.free.Clone(),
			blkfree:     g.blkfree.Clone(),
			nffree:      g.nffree,
			nbfree:      g.nbfree,
			frsum:       append([]int(nil), g.frsum...),
			fragRuns:    cloneSets(g.fragRuns),
			clusterSum:  append([]int(nil), g.clusterSum...),
			clusterRuns: cloneSets(g.clusterRuns),
			inodes:      g.inodes.Clone(),
			nifree:      g.nifree,
			ndir:        g.ndir,
			rotor:       g.rotor,
		})
	}
	// The Files, block maps and indirect lists of the copy are carved
	// out of one slab each. First pass: copy files; second pass:
	// rebuild the tree links through an inode-indexed table.
	var nblocks, ninds, maxIno int
	for ino, f := range fs.files {
		nblocks += len(f.Blocks)
		ninds += len(f.Indirects)
		maxIno = max(maxIno, ino)
	}
	files := make([]File, len(fs.files))
	blocks := make([]Daddr, nblocks)
	inds := make([]Indirect, ninds)
	byIno := make([]*File, maxIno+1)
	i := 0
	for ino, f := range fs.files {
		nf := &files[i]
		i++
		*nf = File{
			Ino:        f.Ino,
			Name:       f.Name,
			IsDir:      f.IsDir,
			Size:       f.Size,
			Blocks:     carve(&blocks, f.Blocks),
			TailFrags:  f.TailFrags,
			Indirects:  carve(&inds, f.Indirects),
			CreateDay:  f.CreateDay,
			ModDay:     f.ModDay,
			sectionCg:  f.sectionCg,
			scoreOpt:   f.scoreOpt,
			scoreTotal: f.scoreTotal,
		}
		if f.IsDir && len(f.entries) > 0 {
			nf.entries = make([]dirEnt, len(f.entries))
		}
		byIno[ino] = nf
		c.files[ino] = nf
	}
	for ino, f := range fs.files {
		nf := byIno[ino]
		if f.Parent != nil {
			nf.Parent = byIno[f.Parent.Ino]
		}
		// Entries keep their slots; the copy builds its name index on
		// first use.
		for i, e := range f.entries {
			nf.entries[i] = dirEnt{name: e.name, file: byIno[e.file.Ino]}
		}
	}
	c.root = c.files[fs.root.Ino]
	return c
}

// WithPolicy returns the same file system with a different allocation
// policy installed, for before/after experiments on one image.
func (fs *FileSystem) WithPolicy(p Policy) *FileSystem {
	fs.policy = p
	return fs
}

// carve copies src into the front of *slab, advances *slab past it
// and returns the copy. The copy's capacity is capped at its length, so
// appending to it reallocates instead of overwriting the next file's
// slots. An empty src yields nil, as a fresh copy would.
func carve[T any](slab *[]T, src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	dst := (*slab)[:n:n]
	copy(dst, src)
	*slab = (*slab)[n:]
	return dst
}

// cloneSets deep-copies a slice of bitsets, keeping nil slots nil.
func cloneSets(sets []*bitset.Set) []*bitset.Set {
	c := make([]*bitset.Set, len(sets))
	for i, s := range sets {
		if s != nil {
			c[i] = s.Clone()
		}
	}
	return c
}
