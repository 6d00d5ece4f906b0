package ffs

import "fmt"

// dirBlkSize is DIRBLKSIZ: the unit in which directories are extended.
const dirBlkSize = 512

// dirpref chooses the cylinder group for a new directory: among groups
// with at least the average number of free inodes, the one containing
// the fewest directories (ffs_dirpref). This is what spreads the aging
// replayer's per-group directories one per cylinder group.
func (fs *FileSystem) dirpref() int {
	var totIfree int64
	for _, c := range fs.cgs {
		totIfree += int64(c.nifree)
	}
	avg := totIfree / int64(len(fs.cgs))
	best, bestDirs := -1, int(^uint(0)>>1)
	for _, c := range fs.cgs {
		if int64(c.nifree) >= avg && c.ndir < bestDirs {
			best, bestDirs = c.Index, c.ndir
		}
	}
	if best < 0 {
		// Every group is below average (only possible with wildly
		// uneven inode exhaustion); fall back to most free inodes.
		most := 0
		for _, c := range fs.cgs {
			if c.nifree > fs.cgs[most].nifree {
				most = c.Index
			}
		}
		best = most
	}
	return best
}

// entryBytes returns the directory space an entry consumes: the
// 8-byte header plus the name padded to a 4-byte boundary (struct
// direct).
func entryBytes(name string) int64 {
	return int64(8 + (len(name)+4)&^3)
}

// makeDirectory allocates a directory inode in dirpref's group, charges
// the parent for the entry, and writes the initial directory block.
func (fs *FileSystem) makeDirectory(parent *File, name string, day int) (*File, error) {
	cg := 0 // root goes to group 0
	if parent != nil {
		if _, exists := parent.lookupEntry(name); exists {
			return nil, ErrExists
		}
		cg = fs.dirpref()
	}
	ino, err := fs.ialloc(cg)
	if err != nil {
		return nil, err
	}
	d := fs.newFile()
	d.Ino = ino
	d.Name = name
	d.IsDir = true
	d.CreateDay = day
	d.ModDay = day
	d.sectionCg = fs.InoToCg(ino)
	fs.setFile(ino, d)
	fs.cgs[fs.InoToCg(ino)].ndir++
	if parent != nil {
		if err := fs.addEntry(parent, d, day); err != nil {
			fs.cgs[fs.InoToCg(ino)].ndir--
			fs.ifree(ino)
			fs.dropFile(ino)
			return nil, err
		}
	}
	// "." and ".." occupy the first directory block.
	if err := fs.Append(d, dirBlkSize, day); err != nil {
		fs.cgs[fs.InoToCg(ino)].ndir--
		fs.removeFile(d)
		return nil, err
	}
	return d, nil
}

// Mkdir creates a subdirectory of parent. A returned *CorruptionError
// means the file system tripped over inconsistent on-disk state; see
// CorruptionError.
func (fs *FileSystem) Mkdir(parent *File, name string, day int) (d *File, err error) {
	defer recoverCorruption(&err)
	if !parent.IsDir {
		return nil, fmt.Errorf("ffs: Mkdir in non-directory %s", parent.Path())
	}
	return fs.makeDirectory(parent, name, day)
}

// Rename moves f to newDir under newName. Like the kernel's rename, it
// charges the target directory for the new entry (directories never
// shrink, so the old entry's space simply becomes slack) and refuses to
// clobber an existing name or to move a directory into itself.
func (fs *FileSystem) Rename(f *File, newDir *File, newName string, day int) (err error) {
	defer recoverCorruption(&err)
	if !newDir.IsDir {
		return fmt.Errorf("ffs: rename target %s not a directory", newDir.Path())
	}
	if f.Parent == nil {
		return fmt.Errorf("ffs: cannot rename the root")
	}
	if _, exists := newDir.lookupEntry(newName); exists {
		return ErrExists
	}
	if f.IsDir {
		for d := newDir; d != nil; d = d.Parent {
			if d == f {
				return fmt.Errorf("ffs: cannot move %s into itself", f.Path())
			}
		}
	}
	oldParent, oldName := f.Parent, f.Name
	oldParent.unlink(f)
	f.Name = newName
	if err := fs.addEntry(newDir, f, day); err != nil {
		f.Name = oldName
		oldParent.appendEntry(oldName, f)
		f.Parent = oldParent
		return err
	}
	return nil
}

// addEntry links f into dir, where f's name must be absent, growing
// the directory when the new entry does not fit in the space already
// allocated (FFS extends directories in DIRBLKSIZ units and never
// shrinks them). On a full file system the growth can fail; the entry
// is then not added.
func (fs *FileSystem) addEntry(dir *File, f *File, day int) error {
	need := entryBytes(f.Name)
	allocated := int64(dir.BlocksOnDisk(fs.fpb)) * int64(fs.P.FragSize)
	grow := dir.Size + need - allocated
	if grow > 0 {
		// Round the extension to directory blocks.
		grow = (grow + dirBlkSize - 1) / dirBlkSize * dirBlkSize
		before := dir.Size
		if err := fs.Append(dir, grow, day); err != nil {
			// Undo whatever partial growth happened.
			if terr := fs.Truncate(dir, before, day); terr != nil {
				throwCorrupt("addEntry", -1, "rolling back directory %s: %v", dir.Path(), terr)
			}
			return fmt.Errorf("ffs: growing directory %s: %w", dir.Path(), err)
		}
		// Append advanced Size by the rounded growth; rewind to the
		// true byte count so future entries pack correctly.
		dir.Size = dir.Size - grow + need
	} else {
		dir.Size += need
		dir.ModDay = day
	}
	dir.appendEntry(f.Name, f)
	f.Parent = dir
	return nil
}
