package ffs

import "fmt"

// Directory entries live in File.entries in slot order, with a
// name → slot index beside them in File.entryIdx, so lookup, insert
// and delete are O(1): an insert appends, and a delete moves the last
// entry into the hole. At full scale each per-group directory of the
// aging workloads holds hundreds of entries, where a sorted table's
// binary search and memmove on every create and delete showed up in
// replay profiles.
//
// Slot order depends on the history of inserts and deletes, and
// nothing observable depends on it: image bytes come from the inode
// table, and Check compares the index with the table. The index maps
// names to slots, never to *File (the dirmap invariant), and is built
// lazily on first use, so Clone copies only the entry slice. Both
// recycle with their File through the arena: the slice keeps its
// capacity and the map is cleared, not dropped.

// dirEnt is one directory entry.
type dirEnt struct {
	name string
	file *File
}

// index returns d's name → slot index, building it from the entry
// table on first use.
func (d *File) index() map[string]int32 {
	if d.entryIdx == nil {
		d.entryIdx = make(map[string]int32, len(d.entries))
		for i, e := range d.entries {
			d.entryIdx[e.name] = int32(i)
		}
	}
	return d.entryIdx
}

// slot returns name's position in d's entry table and whether it is
// present. A stale index slot reads as absent, so Repair can count
// damage through it without tripping over it.
func (d *File) slot(name string) (int, bool) {
	i, ok := d.index()[name]
	if !ok || int(i) >= len(d.entries) || d.entries[i].name != name {
		return 0, false
	}
	return int(i), true
}

// lookupEntry returns the child named name.
func (d *File) lookupEntry(name string) (*File, bool) {
	if i, ok := d.slot(name); ok {
		return d.entries[i].file, true
	}
	return nil, false
}

// putEntry inserts or replaces name → f.
func (d *File) putEntry(name string, f *File) {
	if i, ok := d.slot(name); ok {
		d.entries[i].file = f
		return
	}
	d.entryIdx[name] = int32(len(d.entries))
	d.entries = append(d.entries, dirEnt{name: name, file: f})
}

// deleteEntry removes name, moving the last entry into its slot;
// absent names are a no-op.
func (d *File) deleteEntry(name string) {
	i, ok := d.slot(name)
	if !ok {
		return
	}
	// Delete before re-pointing the moved entry: a Go map holding eight
	// names grows on any assignment, even to a name it already holds,
	// and the steady replay loop must not allocate.
	delete(d.entryIdx, name)
	last := len(d.entries) - 1
	if i != last {
		d.entries[i] = d.entries[last]
		d.entryIdx[d.entries[i].name] = int32(i)
	}
	d.entries[last] = dirEnt{}
	d.entries = d.entries[:last]
}

// indexDrift returns the first way d's name index disagrees with its
// entry table, or nil when every slot's name maps back to that slot
// and the index holds nothing else.
func (d *File) indexDrift() error {
	idx := d.index()
	for i, e := range d.entries {
		if j, ok := idx[e.name]; !ok || int(j) != i {
			return fmt.Errorf("dir %s: entry %q in slot %d, index says %d (present=%v)", d.Path(), e.name, i, j, ok)
		}
	}
	if len(idx) != len(d.entries) {
		return fmt.Errorf("dir %s: index holds %d names for %d entries", d.Path(), len(idx), len(d.entries))
	}
	return nil
}
