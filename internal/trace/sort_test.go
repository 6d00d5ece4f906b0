package trace

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tieSecs are the Sec values FuzzOpSorter draws from: few enough that
// (Day, Sec) ties are common, with -0 beside +0 (equal to Compare,
// different bits), the 86399 end-of-day clamp and the half second a
// short-lived delete may sit past it, subnormals, infinities and
// negatives.
var tieSecs = [16]float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324,
	0.5, 1, 1.5, 3600.25,
	86399, 86399.5, 1e300, math.MaxFloat64,
	-1, -86399, math.Inf(1), math.Inf(-1),
}

// decodeTieOps turns data into ops, two bytes each, on up to `days`
// days from {0, 1, MaxDays}; every field comes from a small set, so
// many ops tie on (Day, Sec) and some are identical.
func decodeTieOps(data []byte, days int) []Op {
	var ops []Op
	for ; len(data) >= 2; data = data[2:] {
		v := binary.LittleEndian.Uint16(data)
		ops = append(ops, Op{
			Sec:        tieSecs[v%16],
			Day:        [3]int32{0, 1, MaxDays}[int(v>>4)%days],
			ID:         int64(v>>6%4) - 1,
			Kind:       OpKind(v>>8%3 + 1),
			Size:       int64(v >> 10 % 2),
			Cg:         int16(v >> 11 % 2),
			ShortLived: v>>12%2 == 1,
		})
	}
	return ops
}

// FuzzOpSorter: OpSorter must give exactly slices.SortFunc's order on
// ops with forced (Day, Sec) ties. The first byte picks how many days
// the slice spans; the seeds reach lengths on both sides of minRadix.
// One sorter sorts the input twice, whole and then its first half, so
// its reused buffers are exercised too.
func FuzzOpSorter(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, minRadix - 1, minRadix, minRadix + 1, 300} {
		for days := range 3 {
			seed := make([]byte, 1+2*n)
			rng.Read(seed)
			seed[0] = byte(days)
			f.Add(seed)
		}
	}
	var s OpSorter
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ops := decodeTieOps(data[1:], int(data[0])%3+1)
		for _, n := range []int{len(ops), len(ops) / 2} {
			got := slices.Clone(ops[:n])
			want := slices.Clone(got)
			slices.SortFunc(want, Op.Compare)
			s.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%d ops:\n got %v\nwant %v", n, got, want)
			}
		}
	})
}

// TestOpSorterRandom: on ops with random Sec values, which exercise
// every radix digit, at lengths around minRadix and beyond, across one
// or several days, the sorter gives slices.SortFunc's order.
func TestOpSorterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s OpSorter
	for _, n := range []int{minRadix - 1, minRadix, 100, 5000, 70, 20000} {
		for _, days := range []int32{1, 3} {
			ops := make([]Op, n)
			for i := range ops {
				ops[i] = Op{
					Day: rng.Int31n(days) + 4, Sec: rng.Float64() * 86400,
					ID: rng.Int63n(1000), Kind: OpKind(rng.Intn(3) + 1),
				}
			}
			want := slices.Clone(ops)
			slices.SortFunc(want, Op.Compare)
			s.Sort(ops)
			if !slices.Equal(ops, want) {
				t.Fatalf("%d ops on %d days: sorter order differs from slices.SortFunc", n, days)
			}
		}
	}
}

// TestOpSorterAllocs: once a sorter has sorted a slice, sorting a
// shorter one allocates nothing.
func TestOpSorterAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := make([]Op, 2000)
	for i := range ops {
		ops[i] = Op{Day: rng.Int31n(2), Sec: rng.Float64() * 86400, ID: int64(i)}
	}
	var s OpSorter
	s.Sort(slices.Clone(ops))
	work := make([]Op, len(ops))
	allocs := testing.AllocsPerRun(20, func() {
		copy(work, ops)
		s.Sort(work[:1500])
	})
	if allocs != 0 {
		t.Errorf("Sort allocates %.1f times per call after its first", allocs)
	}
}
