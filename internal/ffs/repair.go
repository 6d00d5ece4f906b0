package ffs

import (
	"fmt"
	"strings"

	"ffsage/internal/bitset"
)

// Repair is the fsck counterpart to Check: it rebuilds the file system
// into a consistent state from the file table, which it treats as the
// ground truth (the inode/block-pointer data a real fsck reads back
// from disk). The passes mirror fsck_ffs:
//
//  1. directory linkage — choose/confirm the root, reattach orphans and
//     cycle members to it, rebuild every directory's entry map from the
//     files' parent pointers (renaming on collision);
//  2. file shapes — reconcile Size, the block count, the fragment tail,
//     and the indirect-block list; a torn write (size recorded, block
//     pointer lost) truncates the file to the blocks actually present;
//  3. extents — claim every file's fragments in ascending inode order;
//     a conflicting or out-of-range extent truncates the owning file at
//     the conflict (first claim wins, like fsck's duplicate-block pass);
//  4. allocation maps — rebuild each group's fragment bitmap as the
//     complement of the claimed set, then recompute the block map,
//     nffree/nbfree, frsum and its fragRuns index, and the cluster
//     summary and its clusterRuns index from it (recomputeSummary, the
//     same pass Check runs), freeing leaked fragments and reclaiming
//     phantoms as a side effect;
//  5. inode maps — rebuild each group's inode bitmap, nifree, and ndir
//     from the file table;
//  6. layout counters — recompute the incremental layout-score caches.
//
// The returned report says what changed. Repair ends by running Check;
// a non-nil error means the state defeated repair (a bug, not a
// property of the input).
func (fs *FileSystem) Repair() (*RepairReport, error) {
	rep := &RepairReport{}
	fs.repairTree(rep)

	claimed := bitset.New(int(fs.P.TotalFrags()))
	for _, c := range fs.cgs {
		if c.metaFrags > 0 {
			claimed.SetRange(int(c.startFrag), int(c.startFrag)+c.metaFrags)
		}
	}
	for _, f := range fs.Files() { // after repairTree: it may synthesize a root
		fs.repairFile(f, claimed, rep)
	}
	fs.rebuildGroups(claimed, rep)
	fs.rebuildInodes(rep)
	fs.rebuildLayout(rep)

	if err := fs.Check(); err != nil {
		return rep, fmt.Errorf("ffs: repair left inconsistency: %w", err)
	}
	return rep, nil
}

// RepairReport records what Repair changed.
type RepairReport struct {
	ReattachedOrphans int   // files re-parented to the root
	RenamedFiles      int   // renamed to resolve a directory collision
	RelinkedFiles     int   // files whose (parent, name) linkage changed
	TruncatedFiles    int   // files cut short by torn writes or extent conflicts
	ShapeFixes        int   // size/tail/indirect canonicalizations
	LeakedFrags       int64 // fragments marked allocated but owned by no file
	PhantomFrags      int64 // fragments owned by a file but marked free
	GroupsRebuilt     int   // groups whose maps or counters were wrong
	InodeMapFixes     int   // groups whose inode map or counters were wrong
	LayoutFixed       bool  // layout-score counters were wrong
}

// Any reports whether the repair changed anything.
func (r *RepairReport) Any() bool {
	return r.ReattachedOrphans > 0 || r.RenamedFiles > 0 || r.RelinkedFiles > 0 ||
		r.TruncatedFiles > 0 || r.ShapeFixes > 0 || r.LeakedFrags > 0 ||
		r.PhantomFrags > 0 || r.GroupsRebuilt > 0 || r.InodeMapFixes > 0 || r.LayoutFixed
}

func (r *RepairReport) String() string {
	if !r.Any() {
		return "clean"
	}
	var parts []string
	add := func(n int64, what string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, what))
		}
	}
	add(int64(r.ReattachedOrphans), "orphans reattached")
	add(int64(r.RenamedFiles), "files renamed")
	add(int64(r.RelinkedFiles), "entries relinked")
	add(int64(r.TruncatedFiles), "files truncated")
	add(int64(r.ShapeFixes), "shapes fixed")
	add(r.LeakedFrags, "leaked frags freed")
	add(r.PhantomFrags, "phantom frags reclaimed")
	add(int64(r.GroupsRebuilt), "groups rebuilt")
	add(int64(r.InodeMapFixes), "inode maps fixed")
	if r.LayoutFixed {
		parts = append(parts, "layout counters fixed")
	}
	return strings.Join(parts, ", ")
}

// repairTree fixes pass 1: root identity, orphans, cycles, and entry
// maps. Files are processed in ascending inode order so repair is
// deterministic.
func (fs *FileSystem) repairTree(rep *RepairReport) {
	for cg, t := range fs.files {
		for slot, f := range t {
			if ino := fs.inoNumber(cg, slot); f != nil && f.Ino != ino {
				f.Ino = ino
				rep.ShapeFixes++
			}
		}
	}
	live := func(f *File) bool { return f != nil && fs.FileByIno(f.Ino) == f }
	files := fs.Files()

	// Choose the root: the recorded one if it is a live directory, else
	// the lowest-numbered parentless directory, else the lowest-numbered
	// directory, else a synthesized empty one.
	root := fs.root
	if !live(root) || !root.IsDir {
		root = nil
	}
	if root == nil {
		for _, f := range files {
			if f.IsDir && !live(f.Parent) {
				root = f
				break
			}
		}
	}
	if root == nil {
		for _, f := range files {
			if f.IsDir {
				root = f
				break
			}
		}
	}
	if root == nil {
		ino := 0
		for fs.FileByIno(ino) != nil {
			ino++
		}
		root = &File{Ino: ino, Name: "/", IsDir: true}
		fs.setFile(ino, root)
		rep.ReattachedOrphans++ // counts the synthesized root
	}
	if root != fs.root || root.Parent != nil {
		root.Parent = nil
		fs.root = root
	}

	type link struct {
		parent int
		name   string
	}
	old := make([]link, len(files))
	for i, f := range files {
		p := -1
		if f.Parent != nil {
			p = f.Parent.Ino
		}
		old[i] = link{p, f.Name}
	}

	// Count the entry-table damage the rebuild below will erase: stale
	// or aliased entries, canonical entries that are missing, and name
	// indexes that disagree with their tables.
	for _, f := range files {
		if f.IsDir && f.indexDrift() != nil {
			rep.RelinkedFiles++
		}
		for _, e := range f.entries {
			if !f.IsDir || !live(e.file) || e.file.Parent != f || e.file.Name != e.name {
				rep.RelinkedFiles++
			}
		}
		if f != root && live(f.Parent) && f.Parent.IsDir {
			if got, ok := f.Parent.lookupEntry(f.Name); !ok || got != f || !f.Parent.holdsAt(f) {
				rep.RelinkedFiles++
			}
		}
	}

	// Entry tables are rebuilt from scratch below.
	for _, f := range files {
		clear(f.entries)
		f.entries = f.entries[:0]
		clear(f.entryIdx)
	}

	// Reattach files whose parent is dead, not a directory, or itself.
	for _, f := range files {
		if f == root {
			continue
		}
		if !live(f.Parent) || !f.Parent.IsDir || f.Parent == f {
			f.Parent = root
			rep.ReattachedOrphans++
		}
	}
	// Break parent-pointer cycles that never reach the root.
	const unknown, visiting, settled = 0, 1, 2
	state := make(map[*File]int, len(files))
	var reach func(f *File)
	reach = func(f *File) {
		if f == root || state[f] == settled {
			return
		}
		if state[f] == visiting {
			f.Parent = root
			rep.ReattachedOrphans++
			state[f] = settled
			return
		}
		state[f] = visiting
		reach(f.Parent)
		state[f] = settled
	}
	for _, f := range files {
		reach(f)
	}
	// Rebuild the entry tables, renaming on collision.
	for _, f := range files {
		if f == root {
			continue
		}
		name := f.Name
		if name == "" {
			name = fmt.Sprintf("ino%d", f.Ino)
		}
		if _, taken := f.Parent.lookupEntry(name); taken {
			name = fmt.Sprintf("%s~%d", name, f.Ino)
			rep.RenamedFiles++
		}
		f.Name = name
		f.Parent.putEntry(name, f)
	}
	for i, f := range files {
		p := -1
		if f.Parent != nil {
			p = f.Parent.Ino
		}
		if ol := old[i]; ol.parent != p || ol.name != f.Name {
			rep.RelinkedFiles++
		}
	}
}

// repairFile canonicalizes one file's shape and claims its fragments in
// the global claimed set. Conflicting, missing, or out-of-range extents
// truncate the file at the offending logical block.
func (fs *FileSystem) repairFile(f *File, claimed *bitset.Set, rep *RepairReport) {
	bs := int64(fs.P.BlockSize)
	fpb := fs.fpb
	shapeChanged := false

	if f.Size < 0 {
		f.Size = 0
		shapeChanged = true
	}
	wantBlocks := 0
	if f.Size > 0 {
		wantBlocks = int((f.Size + bs - 1) / bs)
	}
	if len(f.Blocks) > wantBlocks {
		// Blocks beyond the recorded size: drop the pointers; the map
		// rebuild frees the fragments.
		f.Blocks = f.Blocks[:wantBlocks]
		shapeChanged = true
	}
	if len(f.Blocks) < wantBlocks {
		// Torn write: the size outran the blocks that reached disk.
		if len(f.Blocks) == 0 {
			f.Size, f.TailFrags = 0, 0
		} else {
			if f.TailFrags < 1 || f.TailFrags > fpb {
				f.TailFrags = fpb
			}
			f.Size = int64(f.BlocksOnDisk(fpb)) * int64(fs.P.FragSize)
		}
		shapeChanged = true
	}
	// Canonical fragment tail for the (current) last block.
	if len(f.Blocks) == 0 {
		if f.TailFrags != 0 {
			f.TailFrags = 0
			shapeChanged = true
		}
	} else {
		lastIdx := len(f.Blocks) - 1
		wantTail := fpb
		if lastIdx < NDirect {
			wantTail = fs.fragsForBytes(f.Size - int64(lastIdx)*bs)
		}
		if f.TailFrags != wantTail {
			f.TailFrags = wantTail
			shapeChanged = true
		}
	}

	// Index the recorded indirect blocks; duplicates and bad levels drop.
	type indKey struct{ lbn, level int }
	indAt := make(map[indKey]Daddr, len(f.Indirects))
	for _, ind := range f.Indirects {
		k := indKey{ind.BeforeLbn, ind.Level}
		if _, dup := indAt[k]; !dup && (ind.Level == 1 || ind.Level == 2) {
			indAt[k] = ind.Addr
		} else {
			shapeChanged = true
		}
	}

	claim := func(d Daddr, n int) bool {
		lo := int(d)
		if lo < 0 || n <= 0 || lo+n > claimed.Len() {
			return false
		}
		if claimed.CountRange(lo, lo+n) != 0 {
			return false
		}
		claimed.SetRange(lo, lo+n)
		return true
	}

	// Walk logical blocks in order, claiming each boundary's indirect
	// blocks and then the data block; truncate at the first failure.
	ppi := fs.ptrsPerIndirect()
	var newInd []Indirect
	truncAt := -1
	for lbn := 0; lbn < len(f.Blocks); lbn++ {
		var stepClaims []Indirect // this lbn's indirects, for rollback
		ok := true
		if lbn >= NDirect && (lbn-NDirect)%ppi == 0 {
			if lbn == NDirect+ppi {
				addr, have := indAt[indKey{lbn, 2}]
				if have && claim(addr, fpb) {
					stepClaims = append(stepClaims, Indirect{BeforeLbn: lbn, Addr: addr, Level: 2})
				} else {
					ok = false
				}
			}
			if ok {
				addr, have := indAt[indKey{lbn, 1}]
				if have && claim(addr, fpb) {
					stepClaims = append(stepClaims, Indirect{BeforeLbn: lbn, Addr: addr, Level: 1})
				} else {
					ok = false
				}
			}
		}
		if ok {
			n := fpb
			if lbn == len(f.Blocks)-1 {
				n = f.TailFrags
			}
			ok = claim(f.Blocks[lbn], n)
		}
		if !ok {
			for _, ind := range stepClaims {
				claimed.ClearRange(int(ind.Addr), int(ind.Addr)+fpb)
			}
			truncAt = lbn
			break
		}
		newInd = append(newInd, stepClaims...)
	}
	if truncAt >= 0 {
		f.Blocks = f.Blocks[:truncAt]
		if truncAt == 0 {
			f.Size, f.TailFrags = 0, 0
		} else {
			// Interior blocks are full; the claims above already cover
			// them at fpb fragments each, matching this shape.
			f.TailFrags = fpb
			f.Size = int64(truncAt) * bs
		}
		rep.TruncatedFiles++
	}
	if len(newInd) != len(f.Indirects) {
		shapeChanged = true
	}
	f.Indirects = newInd
	if len(f.Blocks) > 0 {
		if cg := fs.cgIndexOf(f.Blocks[len(f.Blocks)-1]); f.sectionCg != cg && truncAt >= 0 {
			f.sectionCg = cg
		}
	}
	if f.sectionCg < 0 || f.sectionCg >= len(fs.cgs) {
		f.sectionCg = fs.InoToCg(f.Ino)
		shapeChanged = true
	}
	if shapeChanged {
		rep.ShapeFixes++
	}
}

// rebuildGroups makes every group's maps and summaries agree with the
// claimed set, counting leaked and phantom fragments along the way.
func (fs *FileSystem) rebuildGroups(claimed *bitset.Set, rep *RepairReport) {
	for _, c := range fs.cgs {
		newFree := bitset.New(c.nfrags)
		for i := 0; i < c.nfrags; i++ {
			abs := int(c.startFrag) + i
			inUse := claimed.Test(abs)
			wasFree := c.free.Test(i)
			if !inUse {
				newFree.Set(i)
				if !wasFree {
					rep.LeakedFrags++
				}
			} else if wasFree {
				rep.PhantomFrags++
			}
		}
		changed := !newFree.Equal(c.free)
		c.free = newFree

		sum := c.recomputeSummary()
		changed = changed || c.summaryDrift(sum) != nil
		c.nffree, c.nbfree, c.frsum, c.fragRuns, c.blkfree, c.clusterSum, c.clusterRuns =
			sum.nffree, sum.nbfree, sum.frsum, sum.fragRuns, sum.blkfree, sum.clusterSum, sum.clusterRuns
		if c.rotor < 0 || c.rotor >= c.nfrags {
			c.rotor = c.DataStart()
			changed = true
		}
		if changed {
			rep.GroupsRebuilt++
		}
	}
	// The wholesale rebuild bypassed mutateFrags; refresh the
	// file-system-wide cached free counts from the new group counters.
	fs.recountFree()
}

// rebuildInodes makes every group's inode bitmap, nifree, and ndir agree
// with the file table.
func (fs *FileSystem) rebuildInodes(rep *RepairReport) {
	maps := make([]*bitset.Set, len(fs.cgs))
	ndir := make([]int, len(fs.cgs))
	for i := range maps {
		maps[i] = bitset.New(fs.ipg)
		maps[i].SetRange(0, fs.ipg)
	}
	for cg, t := range fs.files {
		for slot, f := range t {
			if f == nil {
				continue
			}
			maps[cg].Clear(slot)
			if f.IsDir {
				ndir[cg]++
			}
		}
	}
	for _, c := range fs.cgs {
		nifree := maps[c.Index].Count()
		if !maps[c.Index].Equal(c.inodes) || nifree != c.nifree || ndir[c.Index] != c.ndir {
			rep.InodeMapFixes++
		}
		c.inodes = maps[c.Index]
		c.nifree = nifree
		c.ndir = ndir[c.Index]
	}
}

// rebuildLayout recomputes the incremental layout-score caches.
func (fs *FileSystem) rebuildLayout(rep *RepairReport) {
	var opt, total int64
	for _, f := range fs.Files() {
		if f.IsDir {
			if f.scoreOpt != 0 || f.scoreTotal != 0 {
				f.scoreOpt, f.scoreTotal = 0, 0
				rep.LayoutFixed = true
			}
			continue
		}
		o, t := fileLayoutCounts(f, fs.fpb)
		if o != f.scoreOpt || t != f.scoreTotal {
			f.scoreOpt, f.scoreTotal = o, t
			rep.LayoutFixed = true
		}
		opt += int64(o)
		total += int64(t)
	}
	if opt != fs.layoutOpt || total != fs.layoutTotal {
		fs.layoutOpt, fs.layoutTotal = opt, total
		rep.LayoutFixed = true
	}
}
