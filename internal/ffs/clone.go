package ffs

import "ffsage/internal/bitset"

// Clone returns a deep copy of the file system, sharing nothing with
// the original except the read-only pattern table. The benchmark
// harness clones each aged image so every benchmark run starts from
// identical state, the way the paper reran its benchmarks on freshly
// restored aged file systems. Every File in the copy is freshly
// allocated — nothing aliases the source's recycling pool, so the
// clone is safe to use from another goroutine.
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
			fs:         c,
			Index:      g.Index,
			startFrag:  g.startFrag,
			nfrags:     g.nfrags,
			nblk:       g.nblk,
			metaFrags:  g.metaFrags,
			free:       g.free.Clone(),
			blkfree:    g.blkfree.Clone(),
			nffree:     g.nffree,
			nbfree:     g.nbfree,
			frsum:      append([]int(nil), g.frsum...),
			fragRuns:   cloneSets(g.fragRuns),
			clusterSum: append([]int(nil), g.clusterSum...),
			inodes:     g.inodes.Clone(),
			nifree:     g.nifree,
			ndir:       g.ndir,
			rotor:      g.rotor,
		})
	}
	// First pass: copy files; second pass: rebuild the tree links.
	for ino, f := range fs.files {
		nf := &File{
			Ino:        f.Ino,
			Name:       f.Name,
			IsDir:      f.IsDir,
			Size:       f.Size,
			Blocks:     append([]Daddr(nil), f.Blocks...),
			TailFrags:  f.TailFrags,
			Indirects:  append([]Indirect(nil), f.Indirects...),
			CreateDay:  f.CreateDay,
			ModDay:     f.ModDay,
			sectionCg:  f.sectionCg,
			scoreOpt:   f.scoreOpt,
			scoreTotal: f.scoreTotal,
		}
		if f.IsDir && len(f.entries) > 0 {
			nf.entries = make([]dirEnt, len(f.entries))
		}
		c.files[ino] = nf
	}
	for ino, f := range fs.files {
		nf := c.files[ino]
		if f.Parent != nil {
			nf.Parent = c.files[f.Parent.Ino]
		}
		// The source table is sorted; copying positionally keeps it so.
		for i, e := range f.entries {
			nf.entries[i] = dirEnt{name: e.name, file: c.files[e.file.Ino]}
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
