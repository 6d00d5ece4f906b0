package disk

import "fmt"

// Partition is a contiguous sector range of a disk exposed with
// byte-offset addressing, the unit on which a file system is built. The
// paper's 502 MB file system occupies roughly a quarter of the 2.1 GB
// drive; PaperPartition places it in the middle third, where the average
// seek behaviour of the drive applies.
type Partition struct {
	disk    *Disk
	start   int64 // first LBA
	sectors int64
}

// NewPartition carves [startLBA, startLBA+sectors) out of d.
func NewPartition(d *Disk, startLBA, sectors int64) *Partition {
	if startLBA < 0 || sectors <= 0 || startLBA+sectors > d.p.Geom.TotalSectors() {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("disk: partition [%d,%d) outside disk", startLBA, startLBA+sectors))
	}
	return &Partition{disk: d, start: startLBA, sectors: sectors}
}

// PaperPartition returns a 502 MB partition of d starting at one quarter
// of the way into the drive.
func PaperPartition(d *Disk) *Partition {
	size := int64(502<<20) / int64(d.p.Geom.SectorSize)
	start := d.p.Geom.TotalSectors() / 4
	return NewPartition(d, start, size)
}

// Disk returns the underlying disk.
func (p *Partition) Disk() *Disk { return p.disk }

// Bytes returns the partition's size in bytes.
func (p *Partition) Bytes() int64 { return p.sectors * int64(p.disk.p.Geom.SectorSize) }

func (p *Partition) toSectors(off, n int64) (lba int64, nsect int) {
	ss := int64(p.disk.p.Geom.SectorSize)
	lba, nsect64 := off/ss, n/ss
	if off < 0 || n <= 0 || lba*ss != off || nsect64*ss != n {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("disk: unaligned partition access off=%d n=%d", off, n))
	}
	if off+n > p.Bytes() {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("disk: partition access [%d,%d) beyond %d", off, off+n, p.Bytes()))
	}
	return p.start + lba, int(nsect64)
}

// Read reads n bytes at byte offset off and returns the duration in
// seconds. Offsets and lengths must be sector-aligned.
func (p *Partition) Read(off, n int64) float64 {
	lba, nsect := p.toSectors(off, n)
	return p.disk.Read(lba, nsect)
}

// Write writes n bytes at byte offset off and returns the duration in
// seconds.
func (p *Partition) Write(off, n int64) float64 {
	lba, nsect := p.toSectors(off, n)
	return p.disk.Write(lba, nsect)
}

// RawThroughput measures the raw-device sequential throughput of the
// partition (the "Raw Read/Write Throughput" reference lines in the
// paper's Figure 4): totalBytes of I/O in requestSize units starting at
// offset zero. It returns bytes/second. The partition's clock advances.
func (p *Partition) RawThroughput(totalBytes, requestSize int64, write bool) float64 {
	if requestSize <= 0 || totalBytes < requestSize {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic("disk: bad raw throughput request")
	}
	if totalBytes > p.Bytes() {
		totalBytes = p.Bytes()
	}
	var elapsed float64
	var done int64
	for off := int64(0); off+requestSize <= totalBytes; off += requestSize {
		if write {
			elapsed += p.Write(off, requestSize)
		} else {
			elapsed += p.Read(off, requestSize)
		}
		done += requestSize
	}
	return float64(done) / elapsed
}
