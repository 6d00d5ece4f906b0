package disk

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// everyNth injects a medium error on every nth drive request.
type everyNth struct{ n, calls int }

func (h *everyNth) BeforeIO(write bool, lba int64, nsect int) error {
	h.calls++
	if h.calls%h.n == 0 {
		return errors.New("injected medium error")
	}
	return nil
}

// pinnedEdges returns the boundary LBAs the pinned mix starts requests
// at: the first two and last two sectors, the last and first sector of
// the first track and of the first cylinder, the last sector of a track
// inside cylinder 7, and the first sector of the last cylinder.
func pinnedEdges(g Geometry) []int64 {
	spt := int64(g.SectorsPerTrack)
	spc := spt * int64(g.Heads)
	total := g.TotalSectors()
	return []int64{0, 1, spt - 1, spt, spc - 1, spc, 7*spc + 3*spt - 1, total - spc, total - 2, total - 1}
}

// pinnedMix drives d through fixed edge cases and then a seeded random
// mix of reads, writes and idle gaps, with a fault hook installed for
// part of it.
func pinnedMix(d *Disk) {
	p := d.Params()
	g := p.Geom
	total := g.TotalSectors()
	spt := int64(g.SectorsPerTrack)
	spc := spt * int64(g.Heads)
	maxSect := p.MaxTransfer / g.SectorSize
	slack := int64(p.ReadAheadSlack)

	for _, lba := range pinnedEdges(g) {
		d.Read(lba, 1)
		d.Write(lba, 1)
	}
	d.Read(spt-1, 2)                          // crosses a track
	d.Read(spc-1, 2)                          // crosses a cylinder
	d.Write(100*spc-3, 2*maxSect+5)           // splits at MaxTransfer
	d.Read(total-int64(3*maxSect), 3*maxSect) // splits, ends on the last sector

	// Read-ahead: a continuation hit, a hit at exactly the slack gap,
	// a miss one sector past it, and a backward miss.
	d.Read(5000, 64)
	d.Read(5064, 16)
	d.Read(5080+slack, 16)
	d.Read(5096+slack+slack+1, 16)
	d.Read(5000, 16)
	// A hit whose end lands on the last sector.
	d.Read(total-40, 20)
	d.Read(total-20, 20)

	rng := rand.New(rand.NewSource(1996))
	next := int64(rng.Int63n(total / 2))
	for i := 0; i < 3000; i++ {
		if i == 1000 {
			d.SetFaultHook(&everyNth{n: 7})
		}
		if i == 2000 {
			d.SetFaultHook(nil)
		}
		nsect := 1 + rng.Intn(3*maxSect)
		var lba int64
		switch r := rng.Intn(10); {
		case r < 4: // sequential or a short forward gap
			lba = next + rng.Int63n(slack+2)
		case r < 5: // a track or cylinder boundary
			lba = (1+rng.Int63n(total/spc-1))*spc - int64(rng.Intn(3))
			if rng.Intn(2) == 0 {
				lba -= rng.Int63n(int64(g.Heads)) * spt
			}
		default:
			lba = rng.Int63n(total)
		}
		if lba+int64(nsect) > total {
			lba = total - int64(nsect)
		}
		if rng.Intn(4) == 0 {
			d.Write(lba, nsect)
		} else {
			d.Read(lba, nsect)
		}
		next = lba + int64(nsect)
		if rng.Intn(3) == 0 {
			d.Idle(rng.Float64() * 0.02)
		}
	}
}

// attrHash folds every attribution cell, floats by their bits, into one
// FNV-1a value.
func attrHash(a *Attribution) uint64 {
	h := fnv.New64a()
	for c := range a {
		for b := range a[c] {
			s := a[c][b]
			fmt.Fprintf(h, "%d %x %x %x %x;", s.Count, math.Float64bits(s.Seek),
				math.Float64bits(s.Rot), math.Float64bits(s.Transfer), math.Float64bits(s.Overhead))
		}
	}
	return h.Sum64()
}

// pinnedRow is the clock and every Stats field after pinnedMix, floats
// as their bits.
type pinnedRow struct {
	Now                                           uint64
	Reads, Writes, SectorsRead, SectorsWritten    int64
	BufferHits                                    int64
	SeekTime, RotTime, TransferTime, OverheadTime uint64
	SeekCount, CylindersTraveled, IOErrors        int64
	Attr                                          uint64
}

func pinnedRowOf(d *Disk) pinnedRow {
	st := d.Stats()
	return pinnedRow{
		Now:   math.Float64bits(d.Now()),
		Reads: st.Reads, Writes: st.Writes, SectorsRead: st.SectorsRead, SectorsWritten: st.SectorsWritten,
		BufferHits: st.BufferHits,
		SeekTime:   math.Float64bits(st.SeekTime), RotTime: math.Float64bits(st.RotTime),
		TransferTime: math.Float64bits(st.TransferTime), OverheadTime: math.Float64bits(st.OverheadTime),
		SeekCount: st.SeekCount, CylindersTraveled: st.CylindersTraveled, IOErrors: st.IOErrors,
		Attr: attrHash(&st.Attr),
	}
}

// TestDiskRequestsPinned pins the disk model's clock and statistics
// after a fixed request mix, bit for bit: a change to the request path
// that moves one float by one ulp fails here. It also holds the disk's
// own cylinder and sector arithmetic to Geometry.Locate at the mix's
// boundary LBAs.
func TestDiskRequestsPinned(t *testing.T) {
	ss1 := SparcStation1Params()
	ss1.InitialSpin = 0.0037
	for _, tc := range []struct {
		name string
		p    Params
		want pinnedRow
	}{
		{"paper", PaperParams(), pinnedRow{Now: 0x405dec5e2d714154, Reads: 4503, Writes: 1607,
			SectorsRead: 433793, SectorsWritten: 153708, BufferHits: 2880,
			SeekTime: 0x40348babc73bb586, RotTime: 0x4035c5f306ab36e1,
			TransferTime: 0x404dc80284d6ef7d, OverheadTime: 0x401eb0399a075c3f,
			SeekCount: 1907, CylindersTraveled: 2543249, IOErrors: 288, Attr: 0xc94a4b0d42c8306a}},
		{"ss1-spun", ss1, pinnedRow{Now: 0x4070d4c4f9e1f325, Reads: 4503, Writes: 1607,
			SectorsRead: 433793, SectorsWritten: 153708, BufferHits: 2880,
			SeekTime: 0x40348babc73bb586, RotTime: 0x4035f62f0befeb74,
			TransferTime: 0x4069150d8a16903c, OverheadTime: 0x402ffa9f0dbb2d3d,
			SeekCount: 1907, CylindersTraveled: 2543249, IOErrors: 288, Attr: 0xd4046c4b465b592d}},
	} {
		d := New(tc.p)
		for _, lba := range pinnedEdges(tc.p.Geom) {
			loc := tc.p.Geom.Locate(lba)
			if c, s := d.cyl(lba), d.sect(lba); c != loc.Cyl || s != loc.Sect {
				t.Errorf("%s: lba %d: disk puts it at cyl %d sect %d, Locate at %+v", tc.name, lba, c, s, loc)
			}
		}
		pinnedMix(d)
		if got := pinnedRowOf(d); got != tc.want {
			t.Errorf("%s: got %#v\nwant %#v", tc.name, got, tc.want)
		}
	}
}
