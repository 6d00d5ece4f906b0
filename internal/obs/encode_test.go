package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"unicode/utf8"
)

// The fmt-based renderer the exporters used before they appended into
// the writer's buffer, kept as the reference model the append path must
// match byte for byte.

func refJSONString(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for _, r := range s {
		switch {
		case r == '"':
			out = append(out, '\\', '"')
		case r == '\\':
			out = append(out, '\\', '\\')
		case r == '\n':
			out = append(out, '\\', 'n')
		case r == '\t':
			out = append(out, '\\', 't')
		case r == '\r':
			out = append(out, '\\', 'r')
		case r < 0x20:
			out = append(out, fmt.Sprintf(`\u%04x`, r)...)
		default:
			var buf [utf8.UTFMax]byte
			n := utf8.EncodeRune(buf[:], r)
			out = append(out, buf[:n]...)
		}
	}
	return string(append(out, '"'))
}

func refWriteAttrs(w *bufio.Writer, attrs []Attr) {
	for _, a := range attrs {
		w.WriteByte(',')
		w.WriteString(refJSONString(a.Key))
		w.WriteByte(':')
		switch a.Value.kind {
		case 'i':
			w.WriteString(strconv.FormatInt(a.Value.i, 10))
		case 'f':
			w.WriteString(formatFloat(a.Value.f))
		case 's':
			w.WriteString(refJSONString(a.Value.s))
		case 'b':
			w.WriteString(strconv.FormatBool(a.Value.b))
		}
	}
}

func refWriteRecord(t *Tracer, w *bufio.Writer, i int) {
	sp := &t.ring[(t.start+i)%len(t.ring)]
	if t.format == SpanLines {
		fmt.Fprintf(w, `{"stream":%s,"id":%d,"parent":%d,"span":%s,"start":%s,"end":%s`,
			refJSONString(t.name), sp.ID, sp.Parent, refJSONString(sp.Name),
			formatFloat(sp.Start), formatFloat(sp.End))
	} else {
		fmt.Fprintf(w, `{"stream":%s,"seq":%d,"t":%s,"event":%s`,
			refJSONString(t.name), t.dropped+int64(i), formatFloat(sp.Start), refJSONString(sp.Name))
	}
	refWriteAttrs(w, sp.Attrs)
	w.WriteString("}\n")
}

func refWriteFrom(t *Tracer, w io.Writer, from int64) (int64, error) {
	bw := bufio.NewWriter(w)
	for i := range t.ring {
		if t.dropped+int64(i) >= from {
			refWriteRecord(t, bw, i)
		}
	}
	return t.dropped + int64(len(t.ring)), bw.Flush()
}

func refWriteJSONL(r *Registry, w io.Writer, f Format) error {
	bw := bufio.NewWriter(w)
	label := f.label()
	for _, t := range r.streams(f) {
		fmt.Fprintf(bw, `{"stream":%s,"header":"%s","%s":%d,"dropped":%d}`+"\n",
			refJSONString(t.name), label, label, len(t.ring), t.dropped)
		for i := range t.ring {
			refWriteRecord(t, bw, i)
		}
	}
	return bw.Flush()
}

func refWriteChromeTrace(r *Registry, w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	bw.WriteString("\n")
	bw.WriteString(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"ffsage"}}`)
	for tid, t := range r.streams(SpanLines) {
		fmt.Fprintf(bw, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%s}}",
			tid+1, refJSONString(t.name))
		for i := range t.ring {
			sp := &t.ring[(t.start+i)%len(t.ring)]
			fmt.Fprintf(bw, ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d",
				refJSONString(sp.Name), refJSONString(t.name),
				formatFloat(sp.Start*1e6), formatFloat((sp.End-sp.Start)*1e6), tid+1, sp.ID, sp.Parent)
			refWriteAttrs(bw, sp.Attrs)
			bw.WriteString("}}")
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// Pieces random names and string attributes are built from: plain
// ASCII, every character JSON must escape, DEL, multi-byte UTF-8, and
// invalid UTF-8 (a stray continuation byte, a truncated sequence, an
// overlong encoding).
var encodePieces = []string{
	"a", "disk.read", "age ffs+realloc", `"`, `\`, "\n", "\t", "\r", "\x00", "\x01", "\x1f",
	"\x7f", "é", "日本", " ", "😀", "\x80", "\xc3", "\xe6\x97", "\xc0\xaf", "\xff\xfe",
}

// Floats covering the formatter's special cases and both notations.
var encodeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e20, 1e21, -1e21, 1e-7, 5e-324,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1), 86399.9,
}

// Ints covering the int64 extremes.
var encodeInts = []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}

func randText(rng *rand.Rand) string {
	var b []byte
	for n := rng.Intn(5); n > 0; n-- {
		b = append(b, encodePieces[rng.Intn(len(encodePieces))]...)
	}
	return string(b)
}

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	return encodeFloats[rng.Intn(len(encodeFloats))]
}

func randAttrs(rng *rand.Rand) []Attr {
	attrs := make([]Attr, rng.Intn(4))
	for i := range attrs {
		key := randText(rng)
		switch rng.Intn(4) {
		case 0:
			attrs[i] = I(key, encodeInts[rng.Intn(len(encodeInts))])
		case 1:
			attrs[i] = F(key, randFloat(rng))
		case 2:
			attrs[i] = S(key, randText(rng))
		default:
			attrs[i] = B(key, rng.Intn(2) == 0)
		}
	}
	return attrs
}

// randomRegistry fills a registry with event and span streams of
// random records. Some rings are small enough to wrap, so their dumps
// carry dropped > 0; some spans are left open.
func randomRegistry(rng *rand.Rand) *Registry {
	r := NewRegistry()
	for s := 0; s < 6; s++ {
		format := Format(s % 2)
		tr := r.TracerCap(fmt.Sprintf("s%d.%s", s, randText(rng)), format, 1+rng.Intn(24))
		for n := rng.Intn(40); n > 0; n-- {
			switch {
			case format == EventLines || rng.Intn(4) == 0:
				tr.Emit(randFloat(rng), randText(rng), randAttrs(rng)...)
			case rng.Intn(2) == 0:
				tr.Start(randFloat(rng), randText(rng), randAttrs(rng)...)
			default:
				tr.End(randFloat(rng), randAttrs(rng)...)
			}
		}
	}
	return r
}

// TestAppendEncoderMatchesFmtModel compares every exporter with the fmt
// reference model on random registries, byte for byte.
func TestAppendEncoderMatchesFmtModel(t *testing.T) {
	wrapped := false
	for seed := int64(1); seed <= 200; seed++ {
		r := randomRegistry(rand.New(rand.NewSource(seed)))
		dumps := []struct {
			name      string
			got, want func(io.Writer) error
		}{
			{"WriteSpans", r.WriteSpans, func(w io.Writer) error { return refWriteJSONL(r, w, SpanLines) }},
			{"WriteEvents", r.WriteEvents, func(w io.Writer) error { return refWriteJSONL(r, w, EventLines) }},
			{"WriteChromeTrace", r.WriteChromeTrace, func(w io.Writer) error { return refWriteChromeTrace(r, w) }},
		}
		for _, d := range dumps {
			var got, want bytes.Buffer
			if err := d.got(&got); err != nil {
				t.Fatal(err)
			}
			if err := d.want(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("seed %d: %s differs from the fmt model\n got: %q\nwant: %q", seed, d.name, got.Bytes(), want.Bytes())
			}
		}
		for _, f := range []Format{EventLines, SpanLines} {
			for _, tr := range r.streams(f) {
				wrapped = wrapped || tr.Dropped() > 0
				for _, from := range []int64{0, tr.Dropped(), tr.Dropped() + int64(tr.Len())/2, math.MaxInt64} {
					var got, want bytes.Buffer
					gotNext, err := tr.WriteFrom(&got, from)
					if err != nil {
						t.Fatal(err)
					}
					wantNext, _ := refWriteFrom(tr, &want, from)
					if gotNext != wantNext || !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("seed %d: %s WriteFrom(%d) = %d %q, want %d %q", seed, tr.name, from, gotNext, got.Bytes(), wantNext, want.Bytes())
					}
				}
			}
		}
	}
	if !wrapped {
		t.Fatal("no random ring wrapped; the dropped > 0 path went untested")
	}
}

// TestAppendJSONStringMatchesModel covers the string encoder alone on
// every single byte value and on each piece, with and without a plain
// prefix in front of the first escape.
func TestAppendJSONStringMatchesModel(t *testing.T) {
	cases := append([]string{""}, encodePieces...)
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}))
	}
	for _, s := range cases {
		for _, in := range []string{s, "plain." + s, s + ".plain"} {
			if got, want := string(appendJSONString(nil, in)), refJSONString(in); got != want {
				t.Errorf("appendJSONString(%q) = %s, want %s", in, got, want)
			}
		}
	}
}
