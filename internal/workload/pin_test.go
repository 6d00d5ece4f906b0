package workload_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ffsage/internal/experiments"
	"ffsage/internal/trace"
	"ffsage/internal/workload"
)

// snapshotsHash fingerprints every snapshot's (Day, Ino, Size, CTime)
// records in order, framed by each snapshot's day and file count.
func snapshotsHash(snaps []trace.Snapshot) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range snaps {
		put(uint64(s.Day))
		put(uint64(len(s.Files)))
		for _, f := range s.Files {
			put(uint64(f.Ino))
			put(uint64(f.Size))
			put(math.Float64bits(f.CTime))
		}
	}
	return h.Sum64()
}

// TestBuildPinned pins the workload build's output bit for bit: both
// op streams and every snapshot, at Micro and Quick scale. The
// constants were recorded before the generator computed directory
// weights once per day, emitted snapshots by inode scan and sorted ops
// with slices.SortFunc; any change to the rng draw order, a pick, or
// where two ops that compare equal land after a sort fails here rather
// than only in the report goldens.
func TestBuildPinned(t *testing.T) {
	cases := []struct {
		name                    string
		cfg                     experiments.Config
		reconstructed, truth    uint64
		snapshots               uint64
		reconstructedOps, snaps int
	}{
		{"micro-7", experiments.Micro(7), 0x4d918a658a0946e9, 0x65b2702bf56b2cd4, 0xfd39675d60898205, 3922, 16},
		{"quick-1996", experiments.Quick(1996), 0xd0492ebbc82712ab, 0x5101b9ca19d45614, 0xd44214a75197f05a, 31396, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := workload.BuildWorkload(tc.cfg.WorkloadCfg, tc.cfg.NFSCfg)
			if err != nil {
				t.Fatal(err)
			}
			got := [3]uint64{trace.HashWorkload(b.Reconstructed), trace.HashWorkload(b.Reference.GroundTruth), snapshotsHash(b.Reference.Snapshots)}
			want := [3]uint64{tc.reconstructed, tc.truth, tc.snapshots}
			if got != want {
				t.Errorf("hashes (reconstructed, ground truth, snapshots) = %#x, want %#x", got, want)
			}
			if n := len(b.Reconstructed.Ops); n != tc.reconstructedOps {
				t.Errorf("reconstructed stream has %d ops, want %d", n, tc.reconstructedOps)
			}
			if n := len(b.Reference.Snapshots); n != tc.snaps {
				t.Errorf("%d snapshots, want %d", n, tc.snaps)
			}
		})
	}
}
