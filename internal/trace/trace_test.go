package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
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

func TestWorkloadTextRoundTrip(t *testing.T) {
	wl := sampleWorkload()
	var buf bytes.Buffer
	if err := WriteWorkloadText(&buf, wl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkloadText(&buf)
	if err != nil {
		t.Fatalf("%v\ntext:\n%s", err, buf.String())
	}
	if wl.Days != got.Days || len(wl.Ops) != len(got.Ops) {
		t.Fatalf("shape mismatch: %+v vs %+v", wl, got)
	}
	for i := range wl.Ops {
		a, b := wl.Ops[i], got.Ops[i]
		// Text format rounds Sec to milliseconds.
		if a.Day != b.Day || a.Kind != b.Kind || a.ID != b.ID || a.Cg != b.Cg ||
			a.Size != b.Size || a.ShortLived != b.ShortLived {
			t.Errorf("op %d: %+v vs %+v", i, a, b)
		}
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

func TestOpOrdering(t *testing.T) {
	a := Op{Day: 1, Sec: 5, ID: 10}
	b := Op{Day: 1, Sec: 5, ID: 11}
	c := Op{Day: 1, Sec: 6, ID: 1}
	d := Op{Day: 2, Sec: 0, ID: 0}
	create := Op{Day: 2, Sec: 0, ID: 0, Kind: OpCreate}
	del := Op{Day: 2, Sec: 0, ID: 0, Kind: OpDelete, Size: 9}
	chain := []Op{a, b, c, d, create, del}
	for i := range chain {
		for j := range chain {
			if got, want := chain[i].Compare(chain[j]), cmpInt(i, j); got != want {
				t.Errorf("Compare(op %d, op %d) = %d, want %d", i, j, got, want)
			}
		}
	}
	// Kind breaks the last tie; fields outside the key do not order.
	if got := del.Compare(Op{Day: 2, Sec: 0, ID: 0, Kind: OpDelete}); got != 0 {
		t.Errorf("ops equal on (Day, Sec, ID, Kind) compare %d, want 0", got)
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

// Property: random workloads survive the binary round trip bit-exactly.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wl := &Workload{Days: rng.Intn(500), Ops: make([]Op, 0)}
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			wl.Ops = append(wl.Ops, Op{
				Day:        rng.Intn(500),
				Sec:        rng.Float64() * 86400,
				Kind:       OpKind(1 + rng.Intn(3)),
				ID:         rng.Int63() - rng.Int63(),
				Cg:         rng.Intn(27),
				Size:       rng.Int63n(1 << 25),
				ShortLived: rng.Intn(2) == 0,
			})
		}
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
