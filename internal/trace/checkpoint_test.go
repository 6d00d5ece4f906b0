package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Day:          41,
		NextOp:       123456,
		SkippedOps:   3,
		NoSpaceOps:   1,
		FaultedOps:   2,
		LayoutByDay:  []float64{1, 0.95, 0.91},
		UtilByDay:    []float64{0.1, 0.2, 0.3},
		WorkloadHash: 0xdeadbeefcafef00d,
		Image:        bytes.Repeat([]byte{0x42, 0x17, 0x00}, 1000),
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", cp, got)
	}
}

func TestCheckpointDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, cut := range []int{0, 2, 5, 20, len(b) / 2, len(b) - 1} {
		if _, err := ReadCheckpoint(bytes.NewReader(b[:cut])); err == nil {
			t.Errorf("checkpoint truncated at %d accepted", cut)
		}
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Flip one bit anywhere past the header: the CRC must catch it. (A
	// flip inside the length prefix is caught as truncation instead.)
	for _, pos := range []int{8, 20, len(b) / 2, len(b) - 2} {
		mut := append([]byte(nil), b...)
		mut[pos] ^= 0x10
		if _, err := ReadCheckpoint(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at %d accepted", pos)
		}
	}
}

func TestCheckpointRejectsUnknownVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 0x7f // version varint follows the 4-byte magic
	if _, err := ReadCheckpoint(bytes.NewReader(b)); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestHashWorkloadDistinguishesWorkloads(t *testing.T) {
	a := sampleWorkload()
	b := sampleWorkload()
	if HashWorkload(a) != HashWorkload(b) {
		t.Fatal("identical workloads hash differently")
	}
	b.Ops[2].Size++
	if HashWorkload(a) == HashWorkload(b) {
		t.Fatal("different workloads hash identically")
	}
}

func TestLoadCheckpointMissingIsFresh(t *testing.T) {
	cp, err := LoadCheckpoint(filepath.Join(t.TempDir(), "none.ckpt"))
	if cp != nil || err != nil {
		t.Fatalf("got (%v, %v), want (nil, nil)", cp, err)
	}
}

func TestSaveLoadCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arm.ckpt")
	want := sampleCheckpoint()
	if err := SaveCheckpoint(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestLoadCheckpointTruncatedNamesPath: a checkpoint cut short is an
// error, a *CorruptError that names the file, never a fresh start.
func TestLoadCheckpointTruncatedNamesPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arm.ckpt")
	if err := SaveCheckpoint(path, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	var corrupt *CorruptError
	if cp != nil || !errors.As(err, &corrupt) || !strings.Contains(err.Error(), path) {
		t.Fatalf("got (%v, %v), want a corrupt-checkpoint error naming %s", cp, err, path)
	}
}

// TestSaveCheckpointFailureKeepsPrevious: a save that cannot complete
// leaves the last good checkpoint loadable.
func TestSaveCheckpointFailureKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arm.ckpt")
	want := sampleCheckpoint()
	if err := SaveCheckpoint(path, want); err != nil {
		t.Fatal(err)
	}
	// A non-empty directory where the temp file goes makes the save
	// fail before it touches path.
	if err := os.MkdirAll(filepath.Join(path+".tmp", "child"), 0o777); err != nil {
		t.Fatal(err)
	}
	next := sampleCheckpoint()
	next.Day++
	if err := SaveCheckpoint(path, next); err == nil {
		t.Fatal("save over a blocked temp file succeeded")
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("previous checkpoint changed:\nwant %+v\ngot  %+v", want, got)
	}
}
