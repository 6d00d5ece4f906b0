package workload

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ffsage/internal/trace"
)

// TestBuildDaysSealsPrefixes checks what BuildDays hands its seal
// callback after each day: exactly the finished streams' ops on days
// before the sealed count, unchanged by anything the build does later.
func TestBuildDaysSealsPrefixes(t *testing.T) {
	cfg := fastConfig(41)
	nfs := DefaultNFSTraceConfig(42)
	nfs.PairsPerDay = 40
	type sealed struct {
		days      int
		n         [2]int
		truthHash uint64
		reconHash uint64
	}
	var seals []sealed
	b, err := BuildDays(cfg, nfs, func(truth, recon []trace.Op, days int) {
		seals = append(seals, sealed{
			days:      days,
			n:         [2]int{len(truth), len(recon)},
			truthHash: trace.HashWorkload(&trace.Workload{Days: days, Ops: truth}),
			reconHash: trace.HashWorkload(&trace.Workload{Days: days, Ops: recon}),
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seals) != cfg.Days {
		t.Fatalf("%d seals, want one per day (%d)", len(seals), cfg.Days)
	}
	streams := [2][]trace.Op{b.Reference.GroundTruth.Ops, b.Reconstructed.Ops}
	for d, s := range seals {
		if s.days != d+1 {
			t.Fatalf("seal %d covers %d days", d, s.days)
		}
		for k, ops := range streams {
			n := s.n[k]
			if n > 0 && ops[n-1].Day > d || n < len(ops) && ops[n].Day <= d {
				t.Fatalf("stream %d: seal of day %d ends at op %d, not at the day boundary", k, d, n)
			}
		}
		if trace.HashWorkload(&trace.Workload{Days: s.days, Ops: streams[0][:s.n[0]]}) != s.truthHash ||
			trace.HashWorkload(&trace.Workload{Days: s.days, Ops: streams[1][:s.n[1]]}) != s.reconHash {
			t.Fatalf("day %d: a sealed prefix changed after it was sealed", d)
		}
	}
	// The batch pipeline gives the same streams.
	ref, err := GenerateReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffed, err := Diff(ref.Snapshots, cfg.NumCg, cfg.InodesPerGroup, rand.New(rand.NewSource(cfg.Seed+101)))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(diffed, b.TraceDays, cfg.NumCg, rand.New(rand.NewSource(cfg.Seed+202)))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ref.GroundTruth.Ops, streams[0]) || !slices.Equal(merged.Ops, streams[1]) {
		t.Error("BuildDays differs from GenerateReference, Diff and Merge run one after another")
	}
}

// TestDifferDayRejectsSealedDay feeds the day-at-a-time differ a
// snapshot that reveals a file written on an earlier, sealed day.
func TestDifferDayRejectsSealedDay(t *testing.T) {
	d, err := newDiffer(4, 16, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.day(nil, trace.Snapshot{Day: 0, Files: []trace.FileMeta{{Ino: 1, Size: 10, CTime: 100}}}); err != nil {
		t.Fatal(err)
	}
	late := trace.Snapshot{Day: 1, Files: []trace.FileMeta{{Ino: 1, Size: 10, CTime: 100}, {Ino: 2, Size: 5, CTime: 200}}}
	if _, err := d.day(nil, late); err == nil || !strings.Contains(err.Error(), "sealed day 0") {
		t.Fatalf("an op on sealed day 0 gave %v, want an error naming the day", err)
	}
}

// FuzzDayOrder decodes its input into a few days of ops whose Sec and
// ID values collide often, so many ops tie on the leading keys or are
// identical. Built the way the day-at-a-time build orders a stream,
// day after day, each day's base ops and short-lived ops sorted apart
// and joined by mergeOps, the stream must equal sorting the whole
// slice.
func FuzzDayOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{255, 0, 255, 0, 17, 17, 17, 17, 3, 3, 3, 3, 9, 1, 9, 1})
	f.Add(make([]byte, 48))
	f.Fuzz(func(t *testing.T, data []byte) {
		const days = 4
		var ops []trace.Op
		var base, short [days][]trace.Op
		for len(data) >= 4 {
			v := binary.LittleEndian.Uint32(data)
			data = data[4:]
			op := trace.Op{
				Day:        int(v % days),
				Sec:        float64(v >> 2 % 3),
				ID:         int64(v>>4%3) - 1,
				Kind:       trace.OpKind(v>>6%3 + 1),
				Size:       int64(v >> 8 % 2),
				Cg:         int(v >> 9 % 2),
				ShortLived: v>>10%2 == 1,
			}
			ops = append(ops, op)
			if v>>11%2 == 1 {
				base[op.Day] = append(base[op.Day], op)
			} else {
				short[op.Day] = append(short[op.Day], op)
			}
		}
		want := slices.Clone(ops)
		slices.SortFunc(want, trace.Op.Compare)

		var got []trace.Op
		for d := range days {
			slices.SortFunc(base[d], trace.Op.Compare)
			slices.SortFunc(short[d], trace.Op.Compare)
			got = mergeOps(got, base[d], short[d])
		}
		if !slices.Equal(got, want) {
			t.Fatalf("day-at-a-time order:\n got %v\nwant %v", got, want)
		}
	})
}
