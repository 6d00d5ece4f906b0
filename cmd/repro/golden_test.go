package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files in testdata")

// TestQuickGolden pins the quick-scale exhibits: it runs the equivalent
// of
//
//	repro -quick -ablations -profiles -busstudy -policies all -md … -metrics … -events … -spans-jsonl …
//
// and byte-compares the markdown report (which embeds the tournament
// report and the profile and bus-bandwidth studies) and the metrics
// snapshot against testdata. The event and span streams are pinned by
// SHA-256 (the span stream is megabytes). Every
// refactor of the allocator, the policies or the experiment drivers
// must leave these bytes unchanged; if a change is meant to move them,
// regenerate with:
//
//	go test ./cmd/repro -run QuickGolden -update
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("ages quick-scale images for every arm and policy")
	}
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	o := options{seed: 1996, quick: true, ablations: true, profiles: true, busStudy: true, policies: "all",
		mdPath: out("report.md"), metrics: out("metrics.txt"),
		events: out("events.jsonl"), spansJSONL: out("spans.jsonl")}

	if err := runQuiet(o); err != nil {
		t.Fatal(err)
	}

	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	exact := map[string][]byte{
		"quick_report.md":   read(o.mdPath),
		"quick_metrics.txt": read(o.metrics),
	}
	var sums strings.Builder
	for _, name := range []string{"events.jsonl", "spans.jsonl"} {
		h := sha256.Sum256(read(out(name)))
		fmt.Fprintf(&sums, "%s  %s\n", hex.EncodeToString(h[:]), name)
	}
	exact["quick_streams.sha256"] = []byte(sums.String())

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		for name, b := range exact {
			if err := os.WriteFile(filepath.Join("testdata", name), b, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name, got := range exact {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from its golden file (regenerate with -update if intended); first difference: %s",
				name, firstDiff(got, want))
		}
	}
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want []byte) string {
	g := bufio.NewScanner(bytes.NewReader(got))
	w := bufio.NewScanner(bytes.NewReader(want))
	g.Buffer(nil, 1<<20)
	w.Buffer(nil, 1<<20)
	for line := 1; ; line++ {
		gok, wok := g.Scan(), w.Scan()
		if !gok && !wok {
			return "none (trailing bytes)"
		}
		if gok != wok || g.Text() != w.Text() {
			return fmt.Sprintf("line %d\n got: %q\nwant: %q", line, g.Text(), w.Text())
		}
	}
}
