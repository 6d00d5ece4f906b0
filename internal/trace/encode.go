package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary format: a magic+version header, then a varint-encoded record
// stream. All integers are unsigned/zig-zag varints; times are float64
// bits. The format is append-friendly and streamable.

var (
	workloadMagic = [4]byte{'F', 'F', 'W', '1'}
	snapshotMagic = [4]byte{'F', 'F', 'S', '1'}
)

// writer appends each encoded value straight into the bufio.Writer's
// free space (AvailableBuffer), so no value's bytes pass through a
// local array that escapes into the Write call.
type writer struct {
	w *bufio.Writer
}

// room returns the buffer's free space, empty, flushing first if fewer
// than n bytes are free, so appending up to n bytes allocates nothing.
// The caller writes what it appended with one Write. A failed flush
// needs no check here: a bufio.Writer keeps its first error and
// returns it from every later Write.
func (cw writer) room(n int) []byte {
	if cw.w.Available() < n {
		_ = cw.w.Flush() // any error resurfaces from the caller's Write
	}
	return cw.w.AvailableBuffer()
}

func (cw writer) uv(x uint64) error {
	_, err := cw.w.Write(binary.AppendUvarint(cw.room(binary.MaxVarintLen64), x))
	return err
}

func (cw writer) sv(x int64) error {
	_, err := cw.w.Write(binary.AppendVarint(cw.room(binary.MaxVarintLen64), x))
	return err
}

func (cw writer) f64(x float64) error {
	_, err := cw.w.Write(appendF64(cw.room(8), x))
	return err
}

func appendF64(b []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
}

type reader struct {
	r *bufio.Reader
}

func (rd reader) uv() (uint64, error) { return binary.ReadUvarint(rd.r) }
func (rd reader) sv() (int64, error)  { return binary.ReadVarint(rd.r) }

// f64 reads a float64's eight bytes in place from the reader's buffer.
// Like io.ReadFull it returns io.EOF only when no byte was left and
// io.ErrUnexpectedEOF when some were.
func (rd reader) f64() (float64, error) {
	b, err := rd.r.Peek(8)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(b))
	_, err = rd.r.Discard(8)
	return x, err
}

// shortLivedFlag marks a short-lived op in the flags varint, whose low
// bits hold the OpKind.
const shortLivedFlag = 0x80

// maxOpLen bounds one op's encoding: five varints and Sec's 8 bytes.
const maxOpLen = 5*binary.MaxVarintLen64 + 8

// appendOp appends op's encoding: flags, day, Sec, ID, Cg, Size.
func appendOp(b []byte, op Op) []byte {
	flags := uint64(op.Kind)
	if op.ShortLived {
		flags |= shortLivedFlag
	}
	b = binary.AppendUvarint(b, flags)
	b = binary.AppendUvarint(b, uint64(op.Day))
	b = appendF64(b, op.Sec)
	b = binary.AppendVarint(b, op.ID)
	b = binary.AppendUvarint(b, uint64(op.Cg))
	return binary.AppendVarint(b, op.Size)
}

// WriteWorkload serializes w in the binary workload format.
func WriteWorkload(w io.Writer, wl *Workload) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(workloadMagic[:]); err != nil {
		return err
	}
	cw := writer{bw}
	if err := cw.uv(uint64(wl.Days)); err != nil {
		return err
	}
	if err := cw.uv(uint64(len(wl.Ops))); err != nil {
		return err
	}
	for _, op := range wl.Ops {
		if _, err := bw.Write(appendOp(cw.room(maxOpLen), op)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadWorkload deserializes a binary workload. It rejects what the text
// reader rejects and what an Op cannot hold: a days count or op day
// outside [0, MaxDays], a Sec that is not a non-negative finite time, a
// Cg outside [0, MaxCg], a negative Size, and an op that Compare sorts
// before the one ahead of it (Workload.Ops is in stream order).
func ReadWorkload(r io.Reader) (*Workload, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != workloadMagic {
		return nil, fmt.Errorf("trace: bad workload magic %q", magic[:])
	}
	rd := reader{br}
	days, err := rd.uv()
	if err != nil {
		return nil, err
	}
	if days > MaxDays {
		return nil, fmt.Errorf("trace: days %d out of range [0,%d]", days, MaxDays)
	}
	n, err := rd.uv()
	if err != nil {
		return nil, err
	}
	if n > 1<<28 {
		return nil, fmt.Errorf("trace: implausible op count %d", n)
	}
	// The count is only a claim until the ops arrive: reserve at most
	// a modest prefix, so a corrupt count cannot demand gigabytes.
	wl := &Workload{Days: int(days), Ops: make([]Op, 0, min(n, 1<<16))}
	for i := uint64(0); i < n; i++ {
		op, err := rd.op()
		if err != nil {
			return nil, fmt.Errorf("trace: op %d: %w", i, err)
		}
		if i > 0 && op.Compare(wl.Ops[i-1]) < 0 {
			return nil, fmt.Errorf("trace: op %d out of order: it sorts before op %d", i, i-1)
		}
		wl.Ops = append(wl.Ops, op)
	}
	return wl, nil
}

// op decodes and bounds-checks one op (see ReadWorkload).
func (rd reader) op() (Op, error) {
	var op Op
	flags, err := rd.uv()
	if err != nil {
		return op, err
	}
	op.Kind = OpKind(flags &^ shortLivedFlag)
	op.ShortLived = flags&shortLivedFlag != 0
	if op.Kind < OpCreate || op.Kind > OpRewrite {
		return op, fmt.Errorf("bad kind %d", op.Kind)
	}
	day, err := rd.uv()
	if err != nil {
		return op, err
	}
	if day > MaxDays {
		return op, fmt.Errorf("day %d out of range [0,%d]", day, MaxDays)
	}
	op.Day = int32(day)
	if op.Sec, err = rd.f64(); err != nil {
		return op, err
	}
	if math.IsNaN(op.Sec) || math.IsInf(op.Sec, 0) || op.Sec < 0 {
		return op, fmt.Errorf("sec %v not a non-negative finite time", op.Sec)
	}
	if op.ID, err = rd.sv(); err != nil {
		return op, err
	}
	cg, err := rd.uv()
	if err != nil {
		return op, err
	}
	if cg > MaxCg {
		return op, fmt.Errorf("cg %d out of range [0,%d]", cg, MaxCg)
	}
	op.Cg = int16(cg)
	if op.Size, err = rd.sv(); err != nil {
		return op, err
	}
	if op.Size < 0 {
		return op, fmt.Errorf("negative size %d", op.Size)
	}
	return op, nil
}

// WriteSnapshots serializes a series of snapshots.
func WriteSnapshots(w io.Writer, snaps []Snapshot) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	cw := writer{bw}
	if err := cw.uv(uint64(len(snaps))); err != nil {
		return err
	}
	for _, s := range snaps {
		if err := cw.uv(uint64(s.Day)); err != nil {
			return err
		}
		if err := cw.uv(uint64(len(s.Files))); err != nil {
			return err
		}
		for _, f := range s.Files {
			if err := cw.sv(f.Ino); err != nil {
				return err
			}
			if err := cw.sv(f.Size); err != nil {
				return err
			}
			if err := cw.f64(f.CTime); err != nil {
				return err
			}
			d := uint64(0)
			if f.IsDir {
				d = 1
			}
			if err := cw.uv(d); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadSnapshots deserializes a snapshot series.
func ReadSnapshots(r io.Reader) ([]Snapshot, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("trace: bad snapshot magic %q", magic[:])
	}
	rd := reader{br}
	n, err := rd.uv()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("trace: implausible snapshot count %d", n)
	}
	snaps := make([]Snapshot, 0, n)
	for i := uint64(0); i < n; i++ {
		var s Snapshot
		day, err := rd.uv()
		if err != nil {
			return nil, err
		}
		s.Day = int(day)
		nf, err := rd.uv()
		if err != nil {
			return nil, err
		}
		if nf > 1<<26 {
			return nil, fmt.Errorf("trace: implausible file count %d", nf)
		}
		s.Files = make([]FileMeta, 0, nf)
		for j := uint64(0); j < nf; j++ {
			var f FileMeta
			if f.Ino, err = rd.sv(); err != nil {
				return nil, err
			}
			if f.Size, err = rd.sv(); err != nil {
				return nil, err
			}
			if f.CTime, err = rd.f64(); err != nil {
				return nil, err
			}
			d, err := rd.uv()
			if err != nil {
				return nil, err
			}
			f.IsDir = d != 0
			s.Files = append(s.Files, f)
		}
		snaps = append(snaps, s)
	}
	return snaps, nil
}
