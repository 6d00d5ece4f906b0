package ffs

import "fmt"

// File is an inode: a plain file or a directory. Contents are not
// stored; Blocks records where each logical block lives on disk, which
// is what fragmentation analysis and I/O timing need.
type File struct {
	Ino   int
	Name  string
	IsDir bool
	Size  int64

	// Blocks holds the fragment address of each logical data block.
	// Every entry is a full block except possibly the last, which holds
	// TailFrags fragments (TailFrags == FragsPerBlock when full).
	Blocks    []Daddr
	TailFrags int

	// Indirects records the file's indirect metadata blocks and the
	// logical data block each precedes on a sequential walk.
	Indirects []Indirect

	Parent *File
	// entries is the directory entry table in slot order, and
	// entryIdx maps each name to its slot, built on first use; see
	// entries.go. Directories only.
	entries  []dirEnt
	entryIdx map[string]int32

	CreateDay int
	ModDay    int

	// sectionCg is the cylinder group the current allocation section
	// draws from: the inode's group at first, changing at every
	// section boundary.
	sectionCg int

	// scoreOpt and scoreTotal cache this file's contribution to the
	// file system's incremental layout counters; see layoutacct.go.
	scoreOpt   int
	scoreTotal int
}

// Indirect is one allocated indirect block.
type Indirect struct {
	BeforeLbn int // first data block it maps
	Addr      Daddr
	Level     int // 1 = single, 2 = double parent
}

// BlocksOnDisk returns the number of fragments the file's data occupies.
func (f *File) BlocksOnDisk(fpb int) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	return (len(f.Blocks)-1)*fpb + f.TailFrags
}

// Path returns the file's path from the root, for diagnostics.
func (f *File) Path() string {
	if f.Parent == nil {
		return f.Name
	}
	p := f.Parent.Path()
	if p == "/" {
		return p + f.Name
	}
	return p + "/" + f.Name
}

// fragsForBytes returns the fragments needed for n bytes in one block.
func (fs *FileSystem) fragsForBytes(n int64) int {
	fr := int64(fs.P.FragSize)
	return int((n + fr - 1) / fr)
}

// Append extends f by n bytes, allocating fragments and blocks with the
// original FFS mechanism and handing each newly written run of full
// blocks to the policy (realloc hook) before it is "committed". On
// ErrNoSpace the file keeps the bytes that fit and Size reflects them.
// A returned *CorruptionError means the allocator found inconsistent
// state; the file system is then unspecified until Repair() runs.
func (fs *FileSystem) Append(f *File, n int64, day int) (err error) {
	defer recoverCorruption(&err)
	if n < 0 {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("ffs: Append %d bytes", n))
	}
	f.ModDay = day
	if n == 0 {
		return nil
	}
	bs := int64(fs.P.BlockSize)
	fpb := fs.fpb
	bytesLeft := n
	appended := int64(0)

	runStart := -1
	flush := func(endLbn int) {
		if runStart >= 0 && endLbn > runStart {
			fs.policy.FlushCluster(fs, f, runStart, endLbn)
		}
		runStart = -1
	}
	fail := func(err error) error {
		flush(len(f.Blocks))
		f.Size += appended
		fs.Stats.BytesWritten += appended
		fs.relayout(f)
		return err
	}

	// Consume the slack inside fragments that are already allocated
	// (a partially used tail fragment, or the unused remainder of a
	// full final block past the direct range).
	if len(f.Blocks) > 0 {
		capacity := int64(f.BlocksOnDisk(fpb)) * int64(fs.P.FragSize)
		if slack := capacity - f.Size; slack > 0 {
			take := slack
			if bytesLeft < take {
				take = bytesLeft
			}
			bytesLeft -= take
			appended += take
		}
	}
	// Grow a partial fragment tail toward a full block.
	if bytesLeft > 0 && len(f.Blocks) > 0 && f.TailFrags < fpb {
		lastIdx := len(f.Blocks) - 1
		used := int64(f.TailFrags) * int64(fs.P.FragSize) // slack already consumed
		target := used + bytesLeft
		if target > bs {
			target = bs
		}
		targetFrags := fs.fragsForBytes(target)
		if targetFrags > f.TailFrags {
			if err := fs.growTail(f, targetFrags); err != nil {
				return fail(err)
			}
			if f.TailFrags == fpb {
				// The tail became a full dirty block: it joins the
				// cluster being written.
				runStart = lastIdx
			}
		}
		consumed := target - used
		bytesLeft -= consumed
		appended += consumed
	}

	for bytesLeft > 0 {
		lbn := len(f.Blocks)
		if bytesLeft < bs && lbn < NDirect {
			nf := fs.fragsForBytes(bytesLeft)
			if nf < fpb {
				// Final fragment tail.
				flush(lbn)
				cgIdx, pref := fs.blkpref(f, lbn)
				addr, err := fs.allocFragsMech(cgIdx, pref, nf)
				if err != nil {
					return fail(err)
				}
				f.Blocks = append(f.Blocks, addr)
				f.TailFrags = nf
				appended += bytesLeft
				bytesLeft = 0
				break
			}
		}
		// Full blocks, claimed a run at a time up to the next flush
		// point, the next section start or the fragment tail.
		if fs.isSectionStart(lbn) {
			flush(lbn)
			if err := fs.enterSection(f, lbn); err != nil {
				return fail(err)
			}
		}
		start := runStart
		if start < 0 {
			start = lbn
		}
		want := min(fs.fullBlocksAhead(lbn, bytesLeft), start+fs.P.MaxContig-lbn, fs.nextSectionStart(lbn)-lbn)
		cgIdx, pref := fs.blkpref(f, lbn)
		addr, k, err := fs.allocBlocksMech(cgIdx, pref, want)
		if err != nil {
			return fail(err)
		}
		for i := range k {
			f.Blocks = append(f.Blocks, addr+Daddr(i*fpb))
		}
		f.TailFrags = fpb
		runStart = start
		if lbn+k-runStart == fs.P.MaxContig {
			flush(lbn + k)
		}
		take := min(int64(k)*bs, bytesLeft)
		appended += take
		bytesLeft -= take
	}
	flush(len(f.Blocks))
	f.Size += appended
	fs.Stats.BytesWritten += appended
	fs.relayout(f)
	return nil
}

// fullBlocksAhead returns how many full blocks Append writes from lbn
// on to hold bytesLeft more bytes: all of them, unless the last falls
// in the direct range and fits in a fragment tail.
func (fs *FileSystem) fullBlocksAhead(lbn int, bytesLeft int64) int {
	bs := int64(fs.P.BlockSize)
	n := int((bytesLeft + bs - 1) / bs)
	if lbn+n-1 < NDirect && fs.fragsForBytes(bytesLeft-int64(n-1)*bs) < fs.fpb {
		n--
	}
	return n
}

// growTail extends f's fragment tail to targetFrags fragments, in place
// when the neighbouring fragments are free (ffs_fragextend), otherwise
// by reallocating the tail elsewhere and "copying".
func (fs *FileSystem) growTail(f *File, targetFrags int) error {
	fpb := fs.fpb
	lastIdx := len(f.Blocks) - 1
	addr := f.Blocks[lastIdx]
	c := fs.cgs[fs.cgIndexOf(addr)]
	if fs.freespace() < int64(targetFrags-f.TailFrags) {
		fs.Stats.NoSpaceFailures++
		return ErrNoSpace
	}
	if c.extendFrags(c.relFrag(addr), f.TailFrags, targetFrags) {
		fs.Stats.FragExtends++
		f.TailFrags = targetFrags
		return nil
	}
	// Relocate: prefer right after the previous block, like a fresh
	// allocation at this lbn.
	cgIdx, pref := fs.blkpref(f, lastIdx)
	var newAddr Daddr
	var err error
	if targetFrags == fpb {
		newAddr, _, err = fs.allocBlocksMech(cgIdx, pref, 1)
	} else {
		newAddr, err = fs.allocFragsMech(cgIdx, pref, targetFrags)
	}
	if err != nil {
		return err
	}
	fs.freeRange(addr, f.TailFrags)
	f.Blocks[lastIdx] = newAddr
	f.TailFrags = targetFrags
	fs.Stats.FragRelocations++
	return nil
}

// enterSection switches f to a new cylinder group at the section
// boundary lbn and allocates whatever indirect blocks become necessary
// there (the single indirect before block 12, the double-indirect
// parent and each of its children at their boundaries).
func (fs *FileSystem) enterSection(f *File, lbn int) error {
	prevCg := f.sectionCg
	if lbn > 0 {
		prevCg = fs.cgIndexOf(f.Blocks[lbn-1])
	}
	f.sectionCg = fs.pickSectionCg(prevCg)
	fs.Stats.SectionSwitches++

	if lbn < NDirect || (lbn-NDirect)%fs.ptrsPerIndirect() != 0 {
		return nil // a maxbpg switch: no new indirect block
	}
	ppi := fs.ptrsPerIndirect()
	idx := (lbn - NDirect) / ppi
	if idx > ppi {
		return fmt.Errorf("ffs: file too large (triple indirect unsupported at lbn %d)", lbn)
	}
	if idx == 1 {
		// First double-indirect child: the parent is allocated too.
		addr, _, err := fs.allocBlocksMech(f.sectionCg, fs.frontPref(f.sectionCg), 1)
		if err != nil {
			return err
		}
		f.Indirects = append(f.Indirects, Indirect{BeforeLbn: lbn, Addr: addr, Level: 2})
	}
	addr, _, err := fs.allocBlocksMech(f.sectionCg, fs.frontPref(f.sectionCg), 1)
	if err != nil {
		return err
	}
	f.Indirects = append(f.Indirects, Indirect{BeforeLbn: lbn, Addr: addr, Level: 1})
	return nil
}

// CreateFile creates a plain file of the given size in dir, writing its
// contents in one pass (the aging workload's unit of work). On
// ErrNoSpace the partially written file is removed and the error
// returned.
func (fs *FileSystem) CreateFile(dir *File, name string, size int64, day int) (f *File, err error) {
	defer recoverCorruption(&err)
	if !dir.IsDir {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic("ffs: CreateFile in non-directory")
	}
	if _, exists := dir.lookupEntry(name); exists {
		return nil, ErrExists
	}
	ino, err := fs.ialloc(fs.InoToCg(dir.Ino))
	if err != nil {
		return nil, err
	}
	f = fs.newFile()
	f.Ino = ino
	f.Name = name
	f.CreateDay = day
	f.ModDay = day
	f.sectionCg = fs.InoToCg(ino)
	fs.files[ino] = f
	if err := fs.addEntry(dir, f, day); err != nil {
		fs.ifree(ino)
		delete(fs.files, ino)
		fs.recycleFile(f)
		return nil, err
	}
	fs.Stats.FilesCreated++
	if err := fs.Append(f, size, day); err != nil {
		fs.removeFile(f)
		return nil, err
	}
	return f, nil
}

// Delete removes f (directories must be empty).
func (fs *FileSystem) Delete(f *File) (err error) {
	defer recoverCorruption(&err)
	if f.IsDir {
		if len(f.entries) > 0 {
			return fmt.Errorf("ffs: directory %s not empty", f.Path())
		}
		if f.Parent == nil {
			return fmt.Errorf("ffs: cannot delete root")
		}
		fs.cgs[fs.InoToCg(f.Ino)].ndir--
	}
	fs.removeFile(f)
	fs.Stats.FilesDeleted++
	return nil
}

func (fs *FileSystem) removeFile(f *File) {
	fs.dropLayout(f)
	fs.freeFileBlocks(f, 0)
	if f.Parent != nil {
		f.Parent.deleteEntry(f.Name)
	}
	fs.ifree(f.Ino)
	delete(fs.files, f.Ino)
	fs.recycleFile(f)
}

// freeFileBlocks releases all data blocks with logical index ≥ keep and
// any indirect blocks that only serve the released range.
func (fs *FileSystem) freeFileBlocks(f *File, keep int) {
	fpb := fs.fpb
	freedAny := keep < len(f.Blocks)
	full := len(f.Blocks)
	if freedAny && f.TailFrags < fpb {
		full--
		fs.freeRange(f.Blocks[full], f.TailFrags)
	}
	if keep < full {
		fs.freeBlocks(f.Blocks[keep:full])
	}
	f.Blocks = f.Blocks[:keep]
	kept := f.Indirects[:0]
	for _, ind := range f.Indirects {
		if ind.BeforeLbn < keep {
			kept = append(kept, ind)
		} else {
			fs.freeRange(ind.Addr, fpb)
		}
	}
	f.Indirects = kept
	if keep == 0 {
		f.TailFrags = 0
	} else if freedAny {
		// The new last block was an interior block, hence full.
		f.TailFrags = fpb
	}
}

// Truncate shrinks f to newSize bytes, releasing blocks, surplus tail
// fragments, and orphaned indirect blocks. Growing is done with Append.
func (fs *FileSystem) Truncate(f *File, newSize int64, day int) (err error) {
	defer recoverCorruption(&err)
	if newSize > f.Size {
		return fmt.Errorf("ffs: Truncate %d > size %d (use Append to grow)", newSize, f.Size)
	}
	f.ModDay = day
	if newSize == f.Size {
		return nil
	}
	bs := int64(fs.P.BlockSize)
	keep := 0
	if newSize > 0 {
		keep = int((newSize + bs - 1) / bs)
	}
	fs.freeFileBlocks(f, keep)
	if keep > 0 {
		lastIdx := keep - 1
		// Shrink the (now) last block to a fragment tail when the
		// direct-block rule allows it.
		cur := f.TailFrags
		want := cur
		if lastIdx < NDirect {
			want = fs.fragsForBytes(newSize - int64(lastIdx)*bs)
		}
		if want < cur {
			fs.freeRange(f.Blocks[lastIdx]+Daddr(want), cur-want)
			f.TailFrags = want
		}
		f.sectionCg = fs.cgIndexOf(f.Blocks[lastIdx])
	} else {
		f.sectionCg = fs.InoToCg(f.Ino)
	}
	f.Size = newSize
	fs.relayout(f)
	return nil
}

// Lookup finds name in dir.
func (fs *FileSystem) Lookup(dir *File, name string) (*File, bool) {
	return dir.lookupEntry(name)
}
