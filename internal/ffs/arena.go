package ffs

// File recycling. The aging replay loop creates and deletes files at a
// rate that makes per-operation File construction (and the block-map
// slices hanging off it) the dominant source of garbage in long runs.
// Instead of dropping deleted files to the GC, the file system keeps a
// per-instance free list and hands the structures back out on the next
// create, with their Blocks/Indirects/entries capacity retained and a
// directory's name index cleared, not dropped. In the steady state —
// the regime every aging experiment spends nearly all its time in —
// create after delete touches the heap zero times.
//
// The pool is an implementation detail of one FileSystem: Clone builds
// fresh Files for the copy (never aliasing pooled memory across the
// concurrency boundary), and SetPooling(false) restores the plain
// allocate-and-drop behaviour for A/B comparison. Pooling never changes
// allocation decisions, only where the Go objects come from; the
// arena-on/off differential tests pin that down byte for byte.

// filePool is a LIFO free list of recycled File structures.
type filePool struct {
	free []*File

	news     int64 // Files allocated fresh from the heap
	reuses   int64 // Files handed back out of the pool
	recycles int64 // Files returned to the pool on delete
}

// PoolStats reports the file-recycling pool's activity, for the
// observability gauge and the zero-alloc tests.
type PoolStats struct {
	Pooled   int   // Files currently parked in the pool
	News     int64 // heap allocations
	Reuses   int64 // pool hits
	Recycles int64 // returns
}

// PoolStats returns a snapshot of the pool counters.
func (fs *FileSystem) PoolStats() PoolStats {
	return PoolStats{
		Pooled:   len(fs.pool.free),
		News:     fs.pool.news,
		Reuses:   fs.pool.reuses,
		Recycles: fs.pool.recycles,
	}
}

// SetPooling enables or disables File recycling (the -arena CLI flag).
// Disabling drops any parked Files so later creates come from the heap.
func (fs *FileSystem) SetPooling(on bool) {
	fs.pooling = on
	if !on {
		fs.pool.free = nil
	}
}

// PoolingEnabled reports whether File recycling is active.
func (fs *FileSystem) PoolingEnabled() bool { return fs.pooling }

// newFile returns a zeroed File, from the pool when one is parked
// there. Pooled Files keep their slice capacities, so a recycled File's
// block map grows without reallocating up to the largest size the slot
// has ever held.
func (fs *FileSystem) newFile() *File {
	if fs.pooling {
		if n := len(fs.pool.free); n > 0 {
			f := fs.pool.free[n-1]
			fs.pool.free[n-1] = nil
			fs.pool.free = fs.pool.free[:n-1]
			fs.pool.reuses++
			return f
		}
	}
	fs.pool.news++
	return &File{}
}

// recycleFile parks a dead File for reuse, clearing every field but
// keeping slice capacity. Callers guarantee the File is fully detached
// (no parent entry, no extents, not in the inode table).
func (fs *FileSystem) recycleFile(f *File) {
	if !fs.pooling {
		return
	}
	blocks := f.Blocks[:0]
	inds := f.Indirects[:0]
	ents := f.entries
	clear(ents) // drop child pointers so the GC can collect them
	clear(f.entryIdx)
	*f = File{Blocks: blocks, Indirects: inds, entries: ents[:0], entryIdx: f.entryIdx}
	fs.pool.free = append(fs.pool.free, f)
	fs.pool.recycles++
}
