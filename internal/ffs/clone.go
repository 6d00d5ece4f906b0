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
func (fs *FileSystem) Clone() *FileSystem { return fs.CloneInto(nil) }

// CloneInto is Clone into the memory of dst, an earlier copy (or any
// file system) that nobody uses any more: the cylinder-group maps and
// summaries, the slabs of Files, inode tables, block maps and indirect
// lists, and a directory's entry table are overwritten in place
// wherever they are large enough, so a caller that restores an image
// once per run allocates almost nothing after the first. It returns
// dst, or a fresh copy when dst is nil.
//
// Ownership: from the call on, the copy owns everything dst held.
// Nobody else may use dst, and no caller may keep a File, group or
// slice obtained from dst before the call: the copy overwrites them.
// Files dst's user created outside the slab are reset and parked in the
// copy's recycling pool, so the copy's creates reuse them; the pool's
// counters restart at zero, as a fresh Clone's do. CloneInto onto the
// source itself is a caller bug and panics.
func (fs *FileSystem) CloneInto(dst *FileSystem) *FileSystem {
	if dst == fs {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic("ffs: CloneInto onto its own source")
	}
	c := dst
	if c == nil {
		c = &FileSystem{}
	}
	var spare []*File
	if fs.pooling {
		spare = c.spareFiles()
	}
	oldCgs, oldFiles, old := c.cgs, c.files, c.slab
	*c = FileSystem{
		P:             fs.P,
		fpb:           fs.fpb,
		ipg:           fs.ipg,
		policy:        fs.policy,
		IgnoreReserve: fs.IgnoreReserve,
		Stats:         fs.Stats,
		layoutOpt:     fs.layoutOpt,
		layoutTotal:   fs.layoutTotal,
		patterns:      fs.patterns, // immutable after construction
		freeFrags:     fs.freeFrags,
		freeBlks:      fs.freeBlks,
		derived:       fs.derived,
		pool:          filePool{free: spare},
		pooling:       fs.pooling,
	}
	c.cgs = reuse(oldCgs, len(fs.cgs))
	for i, g := range fs.cgs {
		ng := c.cgs[i]
		if ng == nil {
			ng = &CylGroup{}
			c.cgs[i] = ng
		}
		*ng = CylGroup{
			fs:          c,
			Index:       g.Index,
			startFrag:   g.startFrag,
			nfrags:      g.nfrags,
			nblk:        g.nblk,
			metaFrags:   g.metaFrags,
			free:        g.free.CloneInto(ng.free),
			blkfree:     g.blkfree.CloneInto(ng.blkfree),
			nffree:      g.nffree,
			nbfree:      g.nbfree,
			frsum:       refill(ng.frsum, g.frsum),
			fragRuns:    cloneSets(ng.fragRuns, g.fragRuns),
			clusterSum:  refill(ng.clusterSum, g.clusterSum),
			clusterRuns: cloneSets(ng.clusterRuns, g.clusterRuns),
			inodes:      g.inodes.CloneInto(ng.inodes),
			nifree:      g.nifree,
			ndir:        g.ndir,
			rotor:       g.rotor,
		}
	}
	// The Files, block maps, indirect lists and group tables of the
	// copy are carved out of one slab each. First pass: copy files;
	// second pass: rebuild the tree links through the copy's table.
	var nblocks, ninds, nslots int
	for _, t := range fs.files {
		nslots += len(t)
		for _, f := range t {
			if f != nil {
				nblocks += len(f.Blocks)
				ninds += len(f.Indirects)
			}
		}
	}
	c.slab = cloneSlab{
		files:  reuse(old.files, fs.nfiles),
		slots:  reuse(old.slots, nslots),
		blocks: reuse(old.blocks, nblocks),
		inds:   reuse(old.inds, ninds),
	}
	slots, blocks, inds := c.slab.slots, c.slab.blocks, c.slab.inds
	c.files = reuse(oldFiles, len(fs.files))
	c.nfiles = fs.nfiles
	i := 0
	for g, t := range fs.files {
		ct := slots[:len(t):len(t)]
		slots = slots[len(t):]
		c.files[g] = ct
		for s, f := range t {
			if f == nil {
				ct[s] = nil
				continue
			}
			nf := &c.slab.files[i]
			i++
			ents := nf.entries // the slab slot's old entry table, reused if it fits
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
				entSlot:    f.entSlot,
			}
			if f.IsDir && len(f.entries) > 0 {
				nf.entries = reuse(ents, len(f.entries))
			}
			ct[s] = nf
		}
	}
	for g, t := range fs.files {
		for s, f := range t {
			if f == nil {
				continue
			}
			nf := c.files[g][s]
			if f.Parent != nil {
				nf.Parent = c.FileByIno(f.Parent.Ino)
			}
			// Entries keep their slots; the copy builds its name index
			// on first use.
			for i, e := range f.entries {
				nf.entries[i] = dirEnt{name: e.name, file: c.FileByIno(e.file.Ino)}
			}
		}
	}
	c.root = c.FileByIno(fs.root.Ino)
	return c
}

// cloneSlab holds the arrays a copy's Files, inode tables, block maps
// and indirect lists were carved from, for CloneInto to reuse.
type cloneSlab struct {
	files  []File
	slots  []*File
	blocks []Daddr
	inds   []Indirect
}

// slabMark is the inode number spareFiles stamps on slab Files to tell
// them from Files made outside the slab; the copy overwrites it.
const slabMark = -1

// spareFiles collects, for CloneInto, the Files c's user made outside
// the slab — parked in c's pool or live in its inode table — reset as
// the pool resets a dead File, in the backing array of c's pool.
func (c *FileSystem) spareFiles() []*File {
	for i := range c.slab.files {
		c.slab.files[i].Ino = slabMark
	}
	pooled := c.pool.free
	spare := pooled[:0] // filtering in place: each write trails its read
	keep := func(f *File) {
		if f.Ino != slabMark {
			f.reset()
			spare = append(spare, f)
		}
	}
	for _, f := range pooled {
		keep(f)
	}
	for _, t := range c.files {
		for _, f := range t {
			if f != nil {
				keep(f)
			}
		}
	}
	if n := len(spare); n < len(pooled) {
		clear(pooled[n:])
	}
	return spare
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

// reuse returns buf resliced to n elements when it has the capacity,
// with the elements it drops zeroed so they pin no garbage, and a new
// slice of n otherwise. Elements below n keep their old values for the
// caller to overwrite.
func reuse[T any](buf []T, n int) []T {
	if buf == nil || cap(buf) < n {
		return make([]T, n)
	}
	if n < len(buf) {
		clear(buf[n:])
	}
	return buf[:n]
}

// refill copies src into buf's storage, growing it as append does; an
// empty src yields nil, as a fresh copy would.
func refill[T any](buf, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	return append(buf[:0], src...)
}

// cloneSets deep-copies a slice of bitsets into buf's sets when buf has
// the same length, keeping nil slots nil.
func cloneSets(buf, sets []*bitset.Set) []*bitset.Set {
	if len(buf) != len(sets) {
		buf = make([]*bitset.Set, len(sets))
	}
	for i, s := range sets {
		if s == nil {
			buf[i] = nil
		} else {
			buf[i] = s.CloneInto(buf[i])
		}
	}
	return buf
}
