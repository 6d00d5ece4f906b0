package ffs

import "fmt"

// inodeBytes is the on-disk inode size (struct dinode).
const inodeBytes = 128

// Policy is the in-cylinder-group allocation policy hook. The
// FileSystem performs the original FFS block-at-a-time allocation for
// every write; when a run of newly written, logically consecutive full
// blocks is about to be committed, FlushCluster is invoked and may
// relocate the run (the realloc algorithm) or leave it alone (the
// original algorithm). Runs never span an indirect-section boundary.
type Policy interface {
	// Name identifies the policy in reports ("ffs", "ffs+realloc").
	Name() string
	// FlushCluster may reallocate f's logical blocks [start, end).
	FlushCluster(fs *FileSystem, f *File, start, end int)
}

// FileSystem is a simulated FFS instance. It is not safe for concurrent
// use.
type FileSystem struct {
	P   Params
	fpb int // fragments per block
	ipg int // inodes per group

	cgs    []*CylGroup
	files  map[int]*File // by inode number; includes directories
	root   *File
	policy Policy

	// IgnoreReserve allocates from the minfree reserve, as FFS permits
	// the superuser to; the benchmark harness sets it so a 32 MB corpus
	// fits on a 90%-utilized aged image, as in the paper's runs.
	IgnoreReserve bool

	// FaultHook, when non-nil, is consulted before every block and
	// fragment allocation; a non-nil error aborts the allocation and is
	// returned to the caller (without counting as a no-space failure).
	// Fault plans from internal/faults satisfy this. Clones do not
	// inherit the hook.
	FaultHook AllocFaultHook

	// Stats counts allocator events for the ablation reports.
	Stats AllocStats

	// layoutOpt and layoutTotal are the incrementally maintained
	// aggregate layout-score numerator and denominator over all plain
	// files; see layoutacct.go.
	layoutOpt   int64
	layoutTotal int64

	// patterns is the shared read-only block-pattern table, indexed by a
	// block's fragment free-mask; see buildPatternTable.
	patterns []blockPattern

	// freeFrags and freeBlks cache the file-system-wide free counts so
	// freespace() and the section-switch scans stop summing every group
	// on each allocation. mutateFrags maintains them; Check
	// verifies them against the per-group counters.
	freeFrags int64
	freeBlks  int64

	derived

	// pool recycles File structures between delete and create so the
	// steady-state replay loop allocates nothing; see arena.go.
	pool    filePool
	pooling bool
}

// derived caches values computed from Params at newfs time. The
// per-block paths read them, and Params' value-receiver methods would
// copy the whole struct on every call.
type derived struct {
	ppi           int   // BlockSize/4: block pointers per indirect block
	totalFrags    int64 // P.TotalFrags()
	reserveFrags  int64 // the minfree reserve, in fragments
	rotDelayFrags int   // P.RotDelayFrags()
}

// AllocFaultHook is the fault-injection point for the allocator. It is
// a structural interface so fault plans can live in a package that does
// not import ffs.
type AllocFaultHook interface {
	// BeforeAlloc is called with the number of fragments about to be
	// allocated. Returning a non-nil error injects that error as the
	// allocation's failure.
	BeforeAlloc(frags int) error
}

// AllocStats counts allocator activity.
type AllocStats struct {
	BlocksAllocated  int64
	FragAllocs       int64
	FragExtends      int64
	FragRelocations  int64
	ClusterMoves     int64 // realloc relocations performed
	ClusterAttempts  int64 // FlushCluster invocations with a fragmented run
	SectionSwitches  int64 // cylinder-group changes at section starts
	PrefHits         int64 // allocations placed exactly at ffs_blkpref's preference
	SameCgFallbacks  int64 // allocations that stayed in the preferred group but missed the preferred address
	CgFallbacks      int64 // allocations that left the preferred group
	FilesCreated     int64
	FilesDeleted     int64
	BytesWritten     int64
	NoSpaceFailures  int64
	InodeExhaustions int64
}

// NewFileSystem creates an empty file system ("newfs") with the given
// parameters and allocation policy.
func NewFileSystem(p Params, policy Policy) (*FileSystem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("ffs: nil policy")
	}
	fs := &FileSystem{
		P:       p,
		fpb:     p.FragsPerBlock(),
		files:   make(map[int]*File),
		policy:  policy,
		pooling: true,
	}
	fs.patterns = buildPatternTable(fs.fpb)
	fs.derived = derived{
		ppi:           p.BlockSize / 4,
		totalFrags:    p.TotalFrags(),
		reserveFrags:  p.TotalFrags() * int64(p.MinFreePct) / 100,
		rotDelayFrags: p.RotDelayFrags(),
	}

	// Carve the partition into cylinder groups of whole blocks; the
	// first groups absorb the remainder, one block each.
	totalBlocks := p.TotalBlocks()
	blocksPer := totalBlocks / int64(p.NumCg)
	extra := totalBlocks % int64(p.NumCg)

	// Inode density rounds up to whole fragments of inodes.
	inodesPerFrag := p.FragSize / inodeBytes
	ipg := int(blocksPer) * p.BlockSize / p.BytesPerInode
	ipg = (ipg + inodesPerFrag - 1) / inodesPerFrag * inodesPerFrag
	if ipg < inodesPerFrag {
		ipg = inodesPerFrag
	}
	fs.ipg = ipg

	// Per-group metadata: one block for the superblock copy, one for
	// the cylinder-group header and maps, plus the inode table.
	inodeFrags := ipg / inodesPerFrag
	metaFrags := 2*fs.fpb + inodeFrags

	start := Daddr(0)
	for i := 0; i < p.NumCg; i++ {
		nb := blocksPer
		if int64(i) < extra {
			nb++
		}
		nfrags := int(nb) * fs.fpb
		if metaFrags >= nfrags {
			return nil, fmt.Errorf("ffs: cg %d too small for metadata (%d ≤ %d frags)",
				i, nfrags, metaFrags)
		}
		fs.cgs = append(fs.cgs, newCylGroup(fs, i, start, nfrags, metaFrags))
		start += Daddr(nfrags)
	}

	// The root directory lives in group 0.
	root, err := fs.makeDirectory(nil, "/", 0)
	if err != nil {
		return nil, fmt.Errorf("ffs: creating root: %w", err)
	}
	fs.root = root
	return fs, nil
}

// Policy returns the file system's allocation policy.
func (fs *FileSystem) Policy() Policy { return fs.policy }

// Root returns the root directory.
func (fs *FileSystem) Root() *File { return fs.root }

// NumCg returns the number of cylinder groups.
func (fs *FileSystem) NumCg() int { return len(fs.cgs) }

// Cg returns cylinder group i.
func (fs *FileSystem) Cg(i int) *CylGroup { return fs.cgs[i] }

// InodesPerGroup returns the inode capacity of each group.
func (fs *FileSystem) InodesPerGroup() int { return fs.ipg }

// FragsPerBlock returns the fragment-per-block ratio.
func (fs *FileSystem) FragsPerBlock() int { return fs.fpb }

// CgOf returns the cylinder group containing the fragment address d.
func (fs *FileSystem) CgOf(d Daddr) *CylGroup {
	for _, c := range fs.cgs {
		if d >= c.startFrag && d < c.startFrag+Daddr(c.nfrags) {
			return c
		}
	}
	throwCorrupt("CgOf", -1, "daddr %d outside file system", d)
	return nil // unreachable
}

// cgIndexOf returns the index of the group containing d without a scan
// when groups are near-uniform; falls back to CgOf.
func (fs *FileSystem) cgIndexOf(d Daddr) int {
	guess := int(d / Daddr(fs.cgs[0].nfrags))
	if guess >= len(fs.cgs) {
		guess = len(fs.cgs) - 1
	}
	for guess > 0 && d < fs.cgs[guess].startFrag {
		guess--
	}
	for guess < len(fs.cgs)-1 && d >= fs.cgs[guess].startFrag+Daddr(fs.cgs[guess].nfrags) {
		guess++
	}
	return guess
}

// InoToCg returns the cylinder group index an inode number belongs to.
func (fs *FileSystem) InoToCg(ino int) int { return (ino / fs.ipg) % len(fs.cgs) }

func (fs *FileSystem) inoNumber(cg, slot int) int { return cg*fs.ipg + slot }

// FreeFrags returns the number of free fragments file-system wide,
// including the reserve. The count is maintained incrementally by
// mutateFrags, so this is O(1).
func (fs *FileSystem) FreeFrags() int64 { return fs.freeFrags }

// FreeBlocksTotal returns the number of fully free blocks, maintained
// incrementally like FreeFrags.
func (fs *FileSystem) FreeBlocksTotal() int64 { return fs.freeBlks }

// recountFree recomputes the cached file-system-wide free counts from
// the per-group counters, for callers (repair) that rebuild groups
// wholesale instead of going through mutateFrags.
func (fs *FileSystem) recountFree() {
	fs.freeFrags, fs.freeBlks = 0, 0
	for _, c := range fs.cgs {
		fs.freeFrags += int64(c.FreeFrags())
		fs.freeBlks += int64(c.nbfree)
	}
}

// AvgBFree returns the mean free-block count per group, the threshold
// blkpref's section-switch scan uses.
func (fs *FileSystem) AvgBFree() int64 {
	return fs.FreeBlocksTotal() / int64(len(fs.cgs))
}

// Utilization returns allocated fragments as a fraction of all
// fragments (the paper's utilization metric, which counts the minfree
// reserve as free space).
func (fs *FileSystem) Utilization() float64 {
	total := float64(fs.P.TotalFrags())
	return (total - float64(fs.FreeFrags())) / total
}

// freespace mirrors the FFS freespace() macro: fragments available to
// ordinary allocations after honouring the minfree reserve (which the
// superuser may consume).
func (fs *FileSystem) freespace() int64 {
	if fs.IgnoreReserve {
		return fs.FreeFrags()
	}
	return fs.FreeFrags() - fs.reserveFrags
}

// Files returns the live file table, keyed by inode number. Callers
// must not mutate it; directories are included.
func (fs *FileSystem) Files() map[int]*File { return fs.files }

// FileCount returns the number of live files, excluding directories.
func (fs *FileSystem) FileCount() int {
	n := 0
	for _, f := range fs.files {
		if !f.IsDir {
			n++
		}
	}
	return n
}

// ialloc allocates an inode, preferring prefCg (the directory's group
// for plain files; dirpref's choice for directories) and falling back
// across groups in the quadratic-hash order.
func (fs *FileSystem) ialloc(prefCg int) (int, error) {
	cg := fs.hashalloc(prefCg, func(c *CylGroup) bool { return c.nifree > 0 })
	if cg < 0 {
		fs.Stats.InodeExhaustions++
		return 0, ErrNoInodes
	}
	slot := fs.cgs[cg].allocInode()
	if slot < 0 {
		throwCorrupt("ialloc", cg, "nifree>0 but no slot")
	}
	return fs.inoNumber(cg, slot), nil
}

func (fs *FileSystem) ifree(ino int) {
	fs.cgs[fs.InoToCg(ino)].freeInode(ino % fs.ipg)
}

// hashalloc visits cylinder groups in the FFS order — the preference,
// then quadratic rehash, then linear scan — returning the first group
// accepted by ok, or -1.
func (fs *FileSystem) hashalloc(pref int, ok func(*CylGroup) bool) int {
	ncg := len(fs.cgs)
	pref = ((pref % ncg) + ncg) % ncg
	if ok(fs.cgs[pref]) {
		return pref
	}
	for i := 1; i < ncg; i *= 2 {
		cg := (pref + i) % ncg
		if ok(fs.cgs[cg]) {
			return cg
		}
	}
	for i := 0; i < ncg; i++ {
		cg := (pref + i) % ncg
		if ok(fs.cgs[cg]) {
			return cg
		}
	}
	return -1
}

// InodeDaddr returns the fragment address of the inode's slot in its
// group's inode table, used by the benchmark harness to charge
// synchronous metadata writes to a real disk location.
func (fs *FileSystem) InodeDaddr(ino int) Daddr {
	cg := fs.cgs[fs.InoToCg(ino)]
	inodesPerFrag := fs.P.FragSize / inodeBytes
	slotFrag := (ino % fs.ipg) / inodesPerFrag
	return cg.startFrag + Daddr(2*fs.fpb+slotFrag)
}

// CgStart returns the absolute fragment address of group i's start.
func (fs *FileSystem) CgStart(i int) Daddr { return fs.cgs[i].startFrag }

// absFrag converts a group-relative fragment index to a Daddr.
func (c *CylGroup) absFrag(idx int) Daddr { return c.startFrag + Daddr(idx) }

// relFrag converts a Daddr inside the group to a group-relative index.
func (c *CylGroup) relFrag(d Daddr) int {
	idx := int(d - c.startFrag)
	if idx < 0 || idx >= c.nfrags {
		throwCorrupt("relFrag", c.Index, "daddr %d not in cg %d", d, c.Index)
	}
	return idx
}
