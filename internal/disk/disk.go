package disk

import "fmt"

// Params collects the tunable pieces of the storage-stack model. All
// times are seconds, all rates bytes/second.
type Params struct {
	Geom Geometry
	Seek SeekCurve

	// BusRate is the host transfer rate (fast SCSI-2 behind PCI).
	BusRate float64
	// CtlOverhead is the fixed per-request cost: command setup,
	// interrupt, driver. Every request issued to the drive pays it.
	CtlOverhead float64
	// HeadSwitch is the time to activate an adjacent head (also charged
	// when a transfer walks onto the next track; the drive's skew hides
	// the rotational cost, so only the switch itself is charged).
	HeadSwitch float64
	// MaxTransfer is the controller's largest single transfer in bytes;
	// larger requests are split and each piece pays CtlOverhead. The
	// paper's configuration: 64 KB.
	MaxTransfer int
	// TrackBuffer is the drive's read-ahead buffer size in bytes
	// (512 KB on the ST32430N). A read that continues, or lands a short
	// forward gap after, the previous read is served from the buffer at
	// the media/bus rate with no seek or rotational delay.
	TrackBuffer int
	// ReadAheadSlack is how many sectors of forward gap a buffered read
	// may skip and still hit the buffer (the drive has read past them
	// anyway). One track's worth is the model default.
	ReadAheadSlack int
	// InitialSpin offsets the platter's starting angle by this many
	// seconds of rotation. The paper ran each benchmark ten times; in a
	// deterministic simulation the honest analogue of run-to-run noise
	// is the arbitrary rotational phase each run begins at, which this
	// parameter varies.
	InitialSpin float64
}

// PaperParams returns the storage model for the paper's benchmark
// machine (Table 1): ST32430N, BusLogic 946C, PCI, 64 KB max transfer,
// 512 KB track buffer.
func PaperParams() Params {
	g := ST32430N()
	return Params{
		Geom:           g,
		Seek:           ST32430NSeek(),
		BusRate:        10e6, // fast SCSI-2
		CtlOverhead:    0.7e-3,
		HeadSwitch:     1.0e-3,
		MaxTransfer:    64 << 10,
		TrackBuffer:    512 << 10,
		ReadAheadSlack: 116,
	}
}

// SparcStation1Params returns the storage model of the earlier study
// the paper compares itself to in §5.1 ([Seltzer95]'s SparcStation 1):
// a comparable disk behind a far slower host path. The paper argues its
// own larger speedups come from the PCI machine's higher bus bandwidth
// raising the seek-to-transfer ratio; swapping these parameters into
// the benchmarks reproduces that argument (the A6 study).
func SparcStation1Params() Params {
	p := PaperParams()
	p.BusRate = 1.5e6    // SS1 SCSI effective host rate
	p.CtlOverhead = 2e-3 // slower CPU and controller
	return p
}

// Stats accumulates what the disk spent its time on, for tests,
// debugging and the ablation benches. The four time totals are derived
// from the per-request attribution matrix when Stats() snapshots them
// (always in the same fixed order), so SeekTime is *exactly* the sum of
// Attr's seek cells — the observability layer's reconciliation
// guarantee, asserted by tests.
type Stats struct {
	Reads, Writes     int64 // requests after splitting
	SectorsRead       int64
	SectorsWritten    int64
	BufferHits        int64   // read requests served by read-ahead
	SeekTime          float64 // seconds; = Attr.Totals().Seek
	RotTime           float64 // = Attr.Totals().Rot
	TransferTime      float64 // = Attr.Totals().Transfer
	OverheadTime      float64 // = Attr.Totals().Overhead
	SeekCount         int64   // non-zero-distance seeks
	CylindersTraveled int64
	IOErrors          int64 // injected faults retried (see SetFaultHook)

	// Attr splits every request's duration by how it was served and by
	// request size; see attr.go.
	Attr Attribution
}

// Add returns the cell-wise sum of two snapshots, with the time totals
// recomputed from the merged attribution so the reconciliation
// invariant survives aggregation across disks.
func (s Stats) Add(o Stats) Stats {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.SectorsRead += o.SectorsRead
	s.SectorsWritten += o.SectorsWritten
	s.BufferHits += o.BufferHits
	s.SeekCount += o.SeekCount
	s.CylindersTraveled += o.CylindersTraveled
	s.IOErrors += o.IOErrors
	s.Attr.Merge(&o.Attr)
	t := s.Attr.Totals()
	s.SeekTime, s.RotTime, s.TransferTime, s.OverheadTime = t.Seek, t.Rot, t.Transfer, t.Overhead
	return s
}

// IOFaultHook is the fault-injection point for the disk model. It is a
// structural interface so fault plans (internal/faults) can live in a
// package that does not import disk.
type IOFaultHook interface {
	// BeforeIO is consulted once per drive request (after splitting at
	// MaxTransfer). A non-nil error injects a recoverable medium error:
	// the drive retries the request after a lost revolution plus a
	// controller round-trip, which is how real drives surface soft
	// errors — as latency, not failure.
	BeforeIO(write bool, lba int64, nsect int) error
}

// Disk is a single-actuator disk with a deterministic clock. It is not
// safe for concurrent use; every benchmark drives its own Disk.
//
// The clock only advances through Read, Write and Idle; rotational
// position is derived from the clock, so "thinking too long" between two
// sequential writes naturally costs a missed revolution.
type Disk struct {
	p Params

	// Geometry constants, computed once by New so the request path
	// divides by stored values instead of re-deriving them per request.
	// Each float is the same expression its Geometry getter evaluates,
	// so it is the same value bit for bit.
	spt, spc   int64   // sectors per track, per cylinder
	total      int64   // Geometry.TotalSectors
	rotPeriod  float64 // Geometry.RotationPeriod
	sectorTime float64 // Geometry.SectorTime
	maxSect    int     // MaxTransfer in sectors
	bufSectors int64   // TrackBuffer in whole sectors

	now    float64 // simulated seconds since spin-up
	curCyl int

	// Read-ahead state: the drive streams ahead of the last read.
	raValid bool
	raFrom  int64 // first LBA that is (or will be) buffered

	faults IOFaultHook

	stats Stats
}

// New returns a disk with the head at cylinder zero and the platter at
// the phase implied by InitialSpin.
func New(p Params) *Disk {
	if p.Geom.TotalSectors() == 0 {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic("disk: zero-size geometry")
	}
	if p.MaxTransfer <= 0 || p.MaxTransfer%p.Geom.SectorSize != 0 {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("disk: bad MaxTransfer %d", p.MaxTransfer))
	}
	if p.InitialSpin < 0 {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("disk: negative initial spin %v", p.InitialSpin))
	}
	g := p.Geom
	return &Disk{
		p:          p,
		spt:        int64(g.SectorsPerTrack),
		spc:        int64(g.Heads) * int64(g.SectorsPerTrack),
		total:      g.TotalSectors(),
		rotPeriod:  g.RotationPeriod(),
		sectorTime: g.SectorTime(),
		maxSect:    p.MaxTransfer / g.SectorSize,
		bufSectors: int64(p.TrackBuffer / g.SectorSize),
		now:        p.InitialSpin,
	}
}

// Params returns the model parameters the disk was built with.
func (d *Disk) Params() Params { return d.p }

// Now returns the current simulated time in seconds.
func (d *Disk) Now() float64 { return d.now }

// Stats returns a copy of the accumulated statistics, with the time
// totals computed from the attribution matrix in its fixed order.
func (d *Disk) Stats() Stats {
	st := d.stats
	t := st.Attr.Totals()
	st.SeekTime, st.RotTime, st.TransferTime, st.OverheadTime = t.Seek, t.Rot, t.Transfer, t.Overhead
	return st
}

// ResetStats zeroes the statistics without touching the clock or head.
func (d *Disk) ResetStats() { d.stats = Stats{} }

// SetFaultHook installs (or, with nil, removes) the fault-injection
// hook consulted before every drive request.
func (d *Disk) SetFaultHook(h IOFaultHook) { d.faults = h }

// Idle advances the clock without disk activity (host compute time).
func (d *Disk) Idle(seconds float64) {
	if seconds < 0 {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic("disk: negative idle")
	}
	d.now += seconds
}

// cyl returns the cylinder lba lies on: Geometry.Locate(lba).Cyl.
func (d *Disk) cyl(lba int64) int { return int(lba / d.spc) }

// sect returns lba's sector within its track: Geometry.Locate(lba).Sect.
func (d *Disk) sect(lba int64) int { return int(lba % d.spt) }

// angleSectors returns the sector index currently under the heads,
// as a float in [0, SectorsPerTrack).
func (d *Disk) angleSectors() float64 {
	rev := d.now / d.rotPeriod
	frac := rev - float64(int64(rev))
	return frac * float64(d.spt)
}

// Read performs a read of nsect sectors at lba, advancing the clock, and
// returns the request's duration in seconds. Requests larger than
// MaxTransfer are issued as several back-to-back transfers.
func (d *Disk) Read(lba int64, nsect int) float64 {
	return d.access(lba, nsect, false)
}

// Write performs a write of nsect sectors at lba, advancing the clock,
// and returns the request's duration in seconds.
func (d *Disk) Write(lba int64, nsect int) float64 {
	return d.access(lba, nsect, true)
}

func (d *Disk) access(lba int64, nsect int, write bool) float64 {
	if nsect <= 0 {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("disk: non-positive transfer %d", nsect))
	}
	if lba < 0 || lba+int64(nsect) > d.total {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("disk: access [%d,%d) out of range", lba, lba+int64(nsect)))
	}
	start := d.now
	for nsect > 0 {
		chunk := min(nsect, d.maxSect)
		d.request(lba, chunk, write)
		lba += int64(chunk)
		nsect -= chunk
	}
	return d.now - start
}

// request issues one ≤MaxTransfer request to the drive, attributing
// its duration to exactly one (class, size) attribution cell.
func (d *Disk) request(lba int64, nsect int, write bool) {
	split := TimeSplit{Count: 1}
	d.now += d.p.CtlOverhead
	split.Overhead += d.p.CtlOverhead

	if d.faults != nil {
		if err := d.faults.BeforeIO(write, lba, nsect); err != nil {
			// Recoverable medium error: the drive retries after a lost
			// revolution, and the controller pays another round-trip.
			d.stats.IOErrors++
			penalty := d.rotPeriod + d.p.CtlOverhead
			d.now += penalty
			split.Overhead += penalty
		}
	}

	bucket := SizeBucket(int64(nsect) * int64(d.p.Geom.SectorSize))
	end := lba + int64(nsect)
	var class ReqClass
	if write {
		d.stats.Writes++
		d.stats.SectorsWritten += int64(nsect)
		// A write lands wherever the platters happen to be: full
		// mechanical path, and it invalidates the read-ahead stream.
		d.raValid = false
		class = ReqWrite
		split.Seek, split.Rot, split.Transfer = d.mechanicalTransfer(lba, nsect)
	} else {
		d.stats.Reads++
		d.stats.SectorsRead += int64(nsect)
		if d.bufferHit(lba, nsect) {
			d.stats.BufferHits++
			// Served at the slower of bus rate and the media rate at
			// which the drive keeps streaming ahead. Track and cylinder
			// switches inside the stream are hidden by the format's skew.
			bytes := float64(nsect * d.p.Geom.SectorSize)
			busT := bytes / d.p.BusRate
			mediaT := float64(end-d.raFrom) * d.sectorTime
			t := busT
			if mediaT > t {
				t = mediaT
			}
			d.now += t
			split.Transfer += t
			class = ReqReadHit
		} else {
			class = ReqReadMech
			split.Seek, split.Rot, split.Transfer = d.mechanicalTransfer(lba, nsect)
		}
		// The drive now streams ahead from the end of this read.
		d.raValid = true
		d.raFrom = end
	}
	d.curCyl = d.cyl(end - 1)
	d.stats.Attr.Add(class, bucket, split)
}

// bufferHit reports whether a read of [lba, lba+nsect) is served by the
// drive's read-ahead: it must start at or a short forward gap past the
// stream position (a backward read finds the stream moved on), and fit
// within the buffer (a disk without one never hits).
func (d *Disk) bufferHit(lba int64, nsect int) bool {
	gap := lba - d.raFrom
	return d.raValid && gap >= 0 && gap <= int64(d.p.ReadAheadSlack) &&
		gap+int64(nsect) <= d.bufSectors
}

// mechanicalTransfer performs seek + rotational latency + media
// transfer for one request, returning the three components so the
// caller can attribute them. Track and cylinder boundaries crossed
// mid-transfer cost nothing extra: the disk's format skew exists
// precisely to let sequential transfers stream across them, and
// charging them here would silently shift the rotational phase that
// the lost-rotation write behaviour depends on. The caller moves the
// head to the request's last cylinder.
func (d *Disk) mechanicalTransfer(lba int64, nsect int) (seek, rot, xfer float64) {
	// Seek.
	dist := d.cyl(lba) - d.curCyl
	if dist < 0 {
		dist = -dist
	}
	seek = d.p.Seek.Time(dist)
	if dist == 0 && seek == 0 {
		// Same cylinder: a head switch may still be needed; charge it
		// unconditionally at half weight as an average over "same head"
		// and "different head" cases, keeping the model deterministic
		// without tracking the active head.
		seek = d.p.HeadSwitch / 2
	}
	d.now += seek
	if dist > 0 {
		d.stats.SeekCount++
		d.stats.CylindersTraveled += int64(dist)
	}

	// Rotational latency: wait for the start sector to come around.
	cur := d.angleSectors()
	target := float64(d.sect(lba))
	waitSectors := target - cur
	if waitSectors < 0 {
		waitSectors += float64(d.spt)
	}
	rot = waitSectors * d.sectorTime
	d.now += rot

	// Media transfer; skew hides boundary crossings.
	xfer = float64(nsect) * d.sectorTime
	// The host transfer overlaps the media transfer via the drive
	// buffer; the slower of the two dominates.
	busT := float64(nsect*d.p.Geom.SectorSize) / d.p.BusRate
	if busT > xfer {
		xfer = busT
	}
	d.now += xfer
	return seek, rot, xfer
}
