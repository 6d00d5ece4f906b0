package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ffsage/internal/bench"
	"ffsage/internal/core"
	"ffsage/internal/disk"
	"ffsage/internal/ffs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files in testdata")

// The images in testdata were aged 12 days from a seed-1996 workload:
//
//	mkworkload -days 12 -out wl.ffw
//	agefs -workload wl.ffw -policy ffs -q -image testdata/ffs.img
//	agefs -workload wl.ffw -policy realloc -q -image testdata/realloc.img

// TestGolden pins every subcommand's stdout on the testdata images.
// If a change is meant to move a report, regenerate with:
//
//	go test ./cmd/fsimg -run Golden -update
func TestGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"layout_ffs.txt", []string{"layout", "-image", "testdata/ffs.img"}},
		{"layout_realloc_hot.txt", []string{"layout", "-image", "testdata/realloc.img", "-hotfrom", "9"}},
		{"map_ffs_cg1.txt", []string{"map", "-image", "testdata/ffs.img", "-cg", "1", "-w", "64"}},
		{"seq_realloc.txt", []string{"seq", "-image", "testdata/realloc.img", "-sizes", "8,64,96", "-total", "4194304", "-attr"}},
		{"hot_ffs.txt", []string{"hot", "-image", "testdata/ffs.img", "-fromday", "9", "-attr"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.golden)
			if *updateGolden {
				if err := os.WriteFile(path, out.Bytes(), 0o666); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("fsimg %s drifted from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
					strings.Join(c.args, " "), path, out.Bytes(), want)
			}
		})
	}
}

// TestSeqUsesRecordedPolicy is the regression test for sweeping every
// image under realloc: seq on an image aged under ffs must allocate its
// benchmark files under ffs, as repro's Figure 4 ffs column does.
func TestSeqUsesRecordedPolicy(t *testing.T) {
	const total = 4 << 20
	sizes := []int64{64 << 10, 96 << 10}
	var out bytes.Buffer
	if err := run([]string{"seq", "-image", "testdata/ffs.img", "-sizes", "64,96", "-total", fmt.Sprint(total)}, &out); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")[2:]

	rows := func(pol ffs.Policy) []string {
		t.Helper()
		f, err := os.Open("testdata/ffs.img")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fsys, err := ffs.LoadImage(f, pol)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, size := range sizes {
			r, err := bench.SequentialIO(fsys, disk.PaperParams(), size, total, 300)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%9dK %8d %12.2f %12.2f %8.3f",
				r.FileSize>>10, r.NFiles, r.WriteBps/1e6, r.ReadBps/1e6, r.LayoutScore))
		}
		return lines
	}
	want := rows(core.Original{})
	if strings.Join(want, "\n") == strings.Join(rows(core.Realloc{}), "\n") {
		t.Fatal("testdata/ffs.img sweeps the same under ffs and realloc; it cannot tell the policies apart")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("seq rows on an ffs image:\n%s\nwant (swept under ffs):\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
