package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
)

// Checkpoint format: one frame (see frame.go) — magic, format version,
// payload length, payload, CRC-32 (IEEE) of the payload. The length
// prefix plus trailing checksum means a checkpoint truncated by the
// very crash it was meant to survive is detected on read rather than
// resumed from silently.
//
// The payload carries the replay cursor and accumulated report series;
// the file system itself rides along as an opaque image blob
// (ffs.SaveImage), so this package needs no knowledge of ffs.

var checkpointMagic = [4]byte{'F', 'F', 'C', '1'}

// checkpointVersion is bumped whenever the payload layout changes;
// readers reject versions they do not know.
const checkpointVersion = 1

// maxCheckpointPayload bounds how much a reader will buffer; quick-scale
// images are ~1 MB, full-scale well under this.
const maxCheckpointPayload = 1 << 31

// Checkpoint is a resumable aging-replay state.
type Checkpoint struct {
	Day    int // last fully completed simulated day
	NextOp int // index of the first operation not yet applied

	SkippedOps int64
	NoSpaceOps int64
	FaultedOps int64

	// Per-day series for days 0..Day, in day order.
	LayoutByDay []float64
	UtilByDay   []float64

	// WorkloadHash guards against resuming under a different workload;
	// see HashWorkload.
	WorkloadHash uint64

	// Image is the serialized file system (ffs.SaveImage).
	Image []byte
}

// WriteCheckpoint serializes cp to w.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error {
	var payload bytes.Buffer
	bw := bufio.NewWriter(&payload)
	cw := writer{bw}
	for _, v := range []int64{int64(cp.Day), int64(cp.NextOp), cp.SkippedOps, cp.NoSpaceOps, cp.FaultedOps} {
		if err := cw.sv(v); err != nil {
			return err
		}
	}
	if err := cw.uv(cp.WorkloadHash); err != nil {
		return err
	}
	for _, series := range [][]float64{cp.LayoutByDay, cp.UtilByDay} {
		if err := cw.uv(uint64(len(series))); err != nil {
			return err
		}
		for _, v := range series {
			if err := cw.f64(v); err != nil {
				return err
			}
		}
	}
	if err := cw.uv(uint64(len(cp.Image))); err != nil {
		return err
	}
	if _, err := bw.Write(cp.Image); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return WriteFrame(w, checkpointMagic, checkpointVersion, payload.Bytes())
}

// ReadCheckpoint deserializes and verifies a checkpoint. A truncated,
// corrupted, or future-versioned checkpoint yields a *CorruptError
// (possibly wrapped), never a panic; the caller should fall back to an
// earlier checkpoint or a fresh run.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	const what = "checkpoint"
	payload, err := ReadFrame(r, checkpointMagic, checkpointVersion, maxCheckpointPayload, what)
	if err != nil {
		if err == io.EOF {
			return nil, corruptWrap(what, "reading magic", io.ErrUnexpectedEOF)
		}
		return nil, err
	}

	prd := reader{bufio.NewReader(bytes.NewReader(payload))}
	cp := &Checkpoint{}
	var vals [5]int64
	for i := range vals {
		if vals[i], err = prd.sv(); err != nil {
			return nil, corruptWrap(what, fmt.Sprintf("field %d", i), eofToUnexpected(err))
		}
	}
	day, nextOp := vals[0], vals[1]
	cp.SkippedOps, cp.NoSpaceOps, cp.FaultedOps = vals[2], vals[3], vals[4]
	if day < -1 || day > MaxDays || nextOp < 0 || nextOp > math.MaxInt32 {
		return nil, corruptf(what, "cursor (day %d, op %d) out of range", day, nextOp)
	}
	cp.Day, cp.NextOp = int(day), int(nextOp)
	if cp.WorkloadHash, err = prd.uv(); err != nil {
		return nil, corruptWrap(what, "workload hash", eofToUnexpected(err))
	}
	for i, series := range []*[]float64{&cp.LayoutByDay, &cp.UtilByDay} {
		n, err := prd.uv()
		if err != nil {
			return nil, corruptWrap(what, fmt.Sprintf("series %d", i), eofToUnexpected(err))
		}
		if n > MaxDays+1 {
			return nil, corruptf(what, "series %d has %d entries", i, n)
		}
		s := make([]float64, 0, n)
		for j := uint64(0); j < n; j++ {
			v, err := prd.f64()
			if err != nil {
				return nil, corruptWrap(what, fmt.Sprintf("series %d entry %d", i, j), eofToUnexpected(err))
			}
			s = append(s, v)
		}
		*series = s
	}
	ilen, err := prd.uv()
	if err != nil {
		return nil, corruptWrap(what, "image length", eofToUnexpected(err))
	}
	if ilen > uint64(len(payload)) {
		return nil, corruptf(what, "image length %d exceeds payload", ilen)
	}
	cp.Image = make([]byte, ilen)
	if _, err := io.ReadFull(prd.r, cp.Image); err != nil {
		return nil, corruptWrap(what, "image truncated", eofToUnexpected(err))
	}
	return cp, nil
}

// HashWorkload returns a stable fingerprint of a workload (FNV-64a over
// its binary encoding), stored in checkpoints so a resume under a
// different workload is refused instead of silently diverging.
func HashWorkload(wl *Workload) uint64 {
	h := fnv.New64a()
	if err := WriteWorkload(h, wl); err != nil {
		// Writing to a hash cannot fail; keep the signature clean.
		//lint:ignore ffsvet/nopanic hash.Hash.Write is documented to never return an error
		panic(err)
	}
	return h.Sum64()
}
