package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func sampleWorkload() *Workload {
	return &Workload{
		Days: 3,
		Ops: []Op{
			{Day: 0, Sec: 10.5, Kind: OpCreate, ID: 101, Cg: 2, Size: 4096},
			{Day: 0, Sec: 50000, Kind: OpDelete, ID: 101, Cg: 2},
			{Day: 1, Sec: 3.25, Kind: OpCreate, ID: -7, Cg: 0, Size: 123, ShortLived: true},
			{Day: 2, Sec: 9, Kind: OpRewrite, ID: 200, Cg: 26, Size: 1 << 30},
		},
	}
}

func TestWorkloadBinaryRoundTrip(t *testing.T) {
	wl := sampleWorkload()
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, wl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wl, got) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", wl, got)
	}
}

// TestWorkloadTextRoundTrip: the text form reads back exactly, Sec
// included. The last two ops are under a millisecond apart; written at
// millisecond precision, their IDs would order them the other way and
// the reader would reject the stream.
func TestWorkloadTextRoundTrip(t *testing.T) {
	wl := sampleWorkload()
	wl.Ops = append(wl.Ops,
		Op{Day: 2, Sec: 9.0001, Kind: OpCreate, ID: 5},
		Op{Day: 2, Sec: 9.0004, Kind: OpCreate, ID: 3})
	var buf bytes.Buffer
	if err := WriteWorkloadText(&buf, wl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkloadText(&buf)
	if err != nil {
		t.Fatalf("%v\ntext:\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(wl, got) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", wl, got)
	}
}

// swappedWorkload is the sample with its second and third ops swapped:
// op 2 (day 0) sorts before op 1 (day 1).
func swappedWorkload() *Workload {
	wl := sampleWorkload()
	wl.Ops[1], wl.Ops[2] = wl.Ops[2], wl.Ops[1]
	return wl
}

// TestReadersRejectUnsortedStream: both readers reject a stream out of
// Compare order and name the first op out of order. The replayer never
// moves back a day, so it would replay such an op on a later day.
func TestReadersRejectUnsortedStream(t *testing.T) {
	var bin, text bytes.Buffer
	if err := WriteWorkload(&bin, swappedWorkload()); err != nil {
		t.Fatal(err)
	}
	if err := WriteWorkloadText(&text, swappedWorkload()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadWorkload(&bin); err == nil || !strings.Contains(err.Error(), "op 2 out of order") {
		t.Errorf("binary reader: got %v, want op 2 out of order", err)
	}
	if _, err := ReadWorkloadText(&text); err == nil || !strings.Contains(err.Error(), "line 4: op out of order") {
		t.Errorf("text reader: got %v, want line 4 out of order", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snaps := []Snapshot{
		{Day: 0, Files: []FileMeta{{Ino: 4, Size: 100, CTime: 55.5}, {Ino: 9, Size: 0, CTime: 60, IsDir: true}}},
		{Day: 1, Files: nil},
	}
	var buf bytes.Buffer
	if err := WriteSnapshots(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshots(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Day != 0 || len(got[0].Files) != 2 || got[1].Day != 1 {
		t.Fatalf("got %+v", got)
	}
	if !reflect.DeepEqual(snaps[0].Files, got[0].Files) {
		t.Errorf("files mismatch: %+v vs %+v", snaps[0].Files, got[0].Files)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := ReadWorkload(strings.NewReader("XXXXgarbage")); err == nil {
		t.Error("bad workload magic accepted")
	}
	if _, err := ReadSnapshots(strings.NewReader("YYYYgarbage")); err == nil {
		t.Error("bad snapshot magic accepted")
	}
	if _, err := ReadWorkload(strings.NewReader("FF")); err == nil {
		t.Error("truncated magic accepted")
	}
}

func TestTruncatedWorkload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, sampleWorkload()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, cut := range []int{5, 10, len(b) - 3} {
		if _, err := ReadWorkload(bytes.NewReader(b[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestOpSize pins Op's packed layout: the workload build's sorts and
// merges move every op many times, and the cache holds whole streams.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 32 {
		t.Errorf("trace.Op is %d bytes, want 32", got)
	}
}

// TestHashWorkloadPinned pins the binary encoding through its
// fingerprint: checkpoints store it, so a resume under a build that
// encodes differently would be refused.
func TestHashWorkloadPinned(t *testing.T) {
	if got, want := HashWorkload(sampleWorkload()), uint64(0xf16d1f9bc52a5f5b); got != want {
		t.Errorf("HashWorkload(sample) = %#x, want %#x", got, want)
	}
}

// TestHashWorkloadAllocs pins the codec's allocation-free encoding:
// hashing a stream allocates the hash and the write buffer, however
// many ops it holds.
func TestHashWorkloadAllocs(t *testing.T) {
	wl := &Workload{Days: 10}
	for i := 0; i < 1000; i++ {
		wl.Ops = append(wl.Ops, Op{
			Day: int32(i / 100), Sec: float64(i), Kind: OpCreate,
			ID: int64(i), Cg: int16(i % 27), Size: int64(i) << 10,
		})
	}
	if n := testing.AllocsPerRun(10, func() { HashWorkload(wl) }); n > 2 {
		t.Errorf("HashWorkload of %d ops allocates %v times, want at most 2", len(wl.Ops), n)
	}
}

// encodeOneOp encodes a one-op workload field by field, as WriteWorkload
// lays it out, from raw field values an Op may not hold.
func encodeOneOp(days, day uint64, sec float64, cg uint64, size int64) []byte {
	b := append([]byte(nil), workloadMagic[:]...)
	b = binary.AppendUvarint(b, days)
	b = binary.AppendUvarint(b, 1) // op count
	b = binary.AppendUvarint(b, uint64(OpCreate))
	b = binary.AppendUvarint(b, day)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sec))
	b = binary.AppendVarint(b, 7) // ID
	b = binary.AppendUvarint(b, cg)
	return binary.AppendVarint(b, size)
}

// TestReadWorkloadRejectsOutOfRange: the binary reader rejects every
// field value the text reader rejects or an Op cannot hold, naming the
// op, instead of wrapping it into a negative day or group.
func TestReadWorkloadRejectsOutOfRange(t *testing.T) {
	if _, err := ReadWorkload(bytes.NewReader(encodeOneOp(3, 1, 2.5, 3, 100))); err != nil {
		t.Fatalf("valid op rejected: %v", err)
	}
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"days beyond MaxDays", encodeOneOp(MaxDays+1, 1, 2.5, 3, 100), "days"},
		{"day 2^64-1", encodeOneOp(3, math.MaxUint64, 2.5, 3, 100), "op 0: day"},
		{"day beyond MaxDays", encodeOneOp(3, MaxDays+1, 2.5, 3, 100), "op 0: day"},
		{"NaN sec", encodeOneOp(3, 1, math.NaN(), 3, 100), "op 0: sec"},
		{"infinite sec", encodeOneOp(3, 1, math.Inf(1), 3, 100), "op 0: sec"},
		{"negative sec", encodeOneOp(3, 1, -1, 3, 100), "op 0: sec"},
		{"cg 2^63+5", encodeOneOp(3, 1, 2.5, 1<<63+5, 100), "op 0: cg"},
		{"cg beyond MaxCg", encodeOneOp(3, 1, 2.5, MaxCg+1, 100), "op 0: cg"},
		{"size -100", encodeOneOp(3, 1, 2.5, 3, -100), "op 0: negative size"},
	}
	for _, tc := range cases {
		_, err := ReadWorkload(bytes.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestTextParserErrors(t *testing.T) {
	bad := []string{
		"0 1.0 frobnicate 1 2 3",
		"0 1.0 create x 2 3",
		"0 y create 1 2 3",
		"only three fields",
	}
	for _, line := range bad {
		if _, err := ReadWorkloadText(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

// TestOpOrdering pins Compare as a total order: (Day, Sec, ID, Kind)
// first, then Size, Cg and ShortLived, so only identical ops compare
// equal.
func TestOpOrdering(t *testing.T) {
	a := Op{Day: 1, Sec: 5, ID: 10}
	b := Op{Day: 1, Sec: 5, ID: 11}
	c := Op{Day: 1, Sec: 6, ID: 1}
	d := Op{Day: 2, Sec: 0, ID: 0}
	create := Op{Day: 2, Sec: 0, ID: 0, Kind: OpCreate}
	del := Op{Day: 2, Sec: 0, ID: 0, Kind: OpDelete}
	sized := Op{Day: 2, Sec: 0, ID: 0, Kind: OpDelete, Size: 9}
	grouped := Op{Day: 2, Sec: 0, ID: 0, Kind: OpDelete, Size: 9, Cg: 1}
	short := Op{Day: 2, Sec: 0, ID: 0, Kind: OpDelete, Size: 9, Cg: 1, ShortLived: true}
	chain := []Op{a, b, c, d, create, del, sized, grouped, short}
	for i := range chain {
		for j := range chain {
			if got, want := chain[i].Compare(chain[j]), cmpInt(i, j); got != want {
				t.Errorf("Compare(op %d, op %d) = %d, want %d", i, j, got, want)
			}
		}
	}
	// Size outranks Cg: the later keys only break ties.
	if got := (Op{Size: 1}).Compare(Op{Cg: 5}); got != 1 {
		t.Errorf("Size 1 vs Cg 5 compares %d, want 1", got)
	}
}

func cmpInt(i, j int) int {
	switch {
	case i < j:
		return -1
	case i > j:
		return 1
	}
	return 0
}

func TestSummarize(t *testing.T) {
	s := sampleWorkload().Summarize()
	if s.Ops != 4 || s.Creates != 2 || s.Deletes != 1 || s.Rewrites != 1 || s.ShortLived != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.BytesWritten != 4096+123+1<<30 {
		t.Errorf("bytes = %d", s.BytesWritten)
	}
	if !strings.Contains(s.String(), "4 ops") {
		t.Errorf("String = %q", s.String())
	}
}

// Property: random workloads, put in stream order as the reader
// requires, survive the binary round trip bit-exactly.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wl := &Workload{Days: rng.Intn(500), Ops: make([]Op, 0)}
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			wl.Ops = append(wl.Ops, Op{
				Day:        int32(rng.Intn(500)),
				Sec:        rng.Float64() * 86400,
				Kind:       OpKind(1 + rng.Intn(3)),
				ID:         rng.Int63() - rng.Int63(),
				Cg:         int16(rng.Intn(27)),
				Size:       rng.Int63n(1 << 25),
				ShortLived: rng.Intn(2) == 0,
			})
		}
		slices.SortFunc(wl.Ops, Op.Compare)
		var buf bytes.Buffer
		if err := WriteWorkload(&buf, wl); err != nil {
			return false
		}
		got, err := ReadWorkload(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(wl, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the text parser never panics on arbitrary line soup — it
// either parses or returns an error.
func TestQuickTextParserRobust(t *testing.T) {
	tokens := []string{"0", "-3", "1.5", "create", "delete", "rewrite", "short",
		"#", "days=", "days=x", "9999999999999999999999", "NaN", "", "\t"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		for i := 0; i < 20; i++ {
			n := rng.Intn(8)
			for j := 0; j < n; j++ {
				sb.WriteString(tokens[rng.Intn(len(tokens))])
				sb.WriteByte(' ')
			}
			sb.WriteByte('\n')
		}
		_, err := ReadWorkloadText(strings.NewReader(sb.String()))
		_ = err // error or success are both fine; panics are not
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the binary reader never panics on corrupted bytes.
func TestQuickBinaryReaderRobust(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, sampleWorkload()); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := append([]byte(nil), base...)
		for i := 0; i < 1+rng.Intn(5); i++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		_, err := ReadWorkload(bytes.NewReader(b))
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
