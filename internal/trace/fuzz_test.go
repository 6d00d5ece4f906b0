package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzWorkloadTextRoundTrip feeds arbitrary text to the workload
// parser. The parser must never panic; when it accepts the input, the
// parse→write→parse→write cycle must be idempotent (the second write
// byte-identical to the first), which pins down silent data loss —
// fields dropped, reordered, or re-rounded on the way through.
func FuzzWorkloadTextRoundTrip(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteWorkloadText(&seed, sampleWorkload()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("# ffsage workload days=3\n0 1.000 create 5 2 4096\n")
	f.Add("0 1.000 create 5 2 4096 short\n")
	f.Add("0 1.0 delete 5 2 0\n\n# comment\n")
	f.Add("0 NaN create 1 1 1\n")
	f.Add("0 1.0 create 1 1 -5\n")
	f.Add("-1 1.0 create 1 1 1\n")
	f.Add("0 1.0 create 1 1 1 shorty\n")
	f.Add("# days=99999999999\n")
	f.Add("0 2 create 1 1 1\n0 1 create 2 1 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		wl, err := ReadWorkloadText(strings.NewReader(input))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		var first bytes.Buffer
		if err := WriteWorkloadText(&first, wl); err != nil {
			t.Fatalf("writing accepted workload: %v", err)
		}
		wl2, err := ReadWorkloadText(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := WriteWorkloadText(&second, wl2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("text codec not idempotent:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}

// FuzzReadWorkload feeds arbitrary bytes to the binary workload reader:
// it must reject or accept without panicking or over-allocating. What
// it accepts must survive a binary round trip unchanged, and the text
// reader must accept its text form: the two readers check the same
// field bounds.
func FuzzReadWorkload(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteWorkload(&seed, sampleWorkload()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("FFW1"))
	f.Add([]byte{})
	f.Add(encodeOneOp(3, math.MaxUint64, 2.5, 3, 100))
	f.Add(encodeOneOp(3, 1, math.NaN(), 3, 100))
	f.Add(encodeOneOp(3, 1, 2.5, 1<<63+5, 100))
	f.Add(encodeOneOp(3, 1, 2.5, 3, -100))
	var swapped bytes.Buffer
	if err := WriteWorkload(&swapped, swappedWorkload()); err != nil {
		f.Fatal(err)
	}
	f.Add(swapped.Bytes())
	f.Fuzz(func(t *testing.T, input []byte) {
		wl, err := ReadWorkload(bytes.NewReader(input))
		if err != nil {
			return
		}
		var bin bytes.Buffer
		if err := WriteWorkload(&bin, wl); err != nil {
			t.Fatal(err)
		}
		back, err := ReadWorkload(&bin)
		if err != nil || !reflect.DeepEqual(back, wl) {
			t.Fatalf("accepted workload did not round-trip: %v", err)
		}
		var text bytes.Buffer
		if err := WriteWorkloadText(&text, wl); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadWorkloadText(&text); err != nil {
			t.Fatalf("binary reader accepted what the text reader rejects: %v", err)
		}
	})
}

// FuzzReadCheckpoint feeds arbitrary bytes to the checkpoint reader:
// anything that is not a well-formed, checksummed checkpoint must be
// rejected without panicking, and every rejection must be the typed
// *CorruptError the recovery paths switch on.
func FuzzReadCheckpoint(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteCheckpoint(&seed, sampleCheckpoint()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("FFC1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		_, err := ReadCheckpoint(bytes.NewReader(input))
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("rejection %v is not a *CorruptError", err)
			}
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to the generic frame reader (the
// envelope under checkpoints and the aging daemon's queue WAL): it must
// return the payload, io.EOF on empty input, or a *CorruptError —
// never panic. When it does accept, re-encoding the payload must
// reproduce a decodable frame.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteFrame(&seed, [4]byte{'F', 'F', 'Q', '1'}, 1, []byte("record")); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("FFQ1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		magic := [4]byte{'F', 'F', 'Q', '1'}
		payload, err := ReadFrame(bytes.NewReader(input), magic, 1, 1<<20, "fuzz frame")
		if err != nil {
			var ce *CorruptError
			if err != io.EOF && !errors.As(err, &ce) {
				t.Fatalf("rejection %v is neither io.EOF nor *CorruptError", err)
			}
			return
		}
		var again bytes.Buffer
		if err := WriteFrame(&again, magic, 1, payload); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrame(bytes.NewReader(again.Bytes()), magic, 1, 1<<20, "fuzz frame")
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("accepted payload did not round-trip: %v", err)
		}
	})
}
