package ffs

// BlockState classifies one block of a cylinder group for map dumps.
type BlockState byte

// Block map cell states.
const (
	// BlockMeta is superblock/cg-header/inode-table space.
	BlockMeta BlockState = 'M'
	// BlockFree is a fully free block.
	BlockFree BlockState = '.'
	// BlockFull is a fully allocated block.
	BlockFull BlockState = '#'
	// BlockPartial holds a mix of free and allocated fragments.
	BlockPartial BlockState = '+'
)

// BlockMap returns group cg's per-block states in block order — the
// raw material for allocation-map visualizations (fsimg map). The
// string form makes fragmentation visible at a glance: long '#' runs
// are clustered data, '.' runs are free pools, alternating '#.#.'
// bands are the crumb fields the original policy leaves behind.
func (fs *FileSystem) BlockMap(cg int) []BlockState {
	c := fs.cgs[cg]
	fpb := fs.fpb
	metaBlocks := (c.metaFrags + fpb - 1) / fpb
	out := make([]BlockState, c.nblk)
	for b := 0; b < c.nblk; b++ {
		switch {
		case b < metaBlocks:
			out[b] = BlockMeta
		case c.blkfree.Test(b):
			out[b] = BlockFree
		case c.pattern(b).nf == 0:
			out[b] = BlockFull
		default:
			out[b] = BlockPartial
		}
	}
	return out
}
