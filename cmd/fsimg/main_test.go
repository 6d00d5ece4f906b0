package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ffsage/internal/bench"
	"ffsage/internal/core"
	"ffsage/internal/disk"
	"ffsage/internal/ffs"
	"ffsage/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files in testdata")

// The images in testdata were aged 12 days from a seed-1996 workload;
// TestRebuildTestdataImages rebuilds them.

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

// TestRebuildTestdataImages runs the pipeline that made the testdata
// images, fsimg workload then fsimg age under each policy, and
// requires it to rebuild them byte for byte.
func TestRebuildTestdataImages(t *testing.T) {
	dir := t.TempDir()
	wl := filepath.Join(dir, "wl.ffw")
	mustRun(t, "workload", "-days", "12", "-out", wl)
	for _, pol := range []string{"ffs", "realloc"} {
		img := filepath.Join(dir, pol+".img")
		mustRun(t, "age", "-workload", wl, "-policy", pol, "-q", "-image", img)
		got, err := os.ReadFile(img)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", pol+".img"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("fsimg age -policy %s rebuilt an image that differs from testdata/%s.img", pol, pol)
		}
	}
}

// TestTextWorkloadAgesLikeBinary: a workload written with -text ages
// into the same image as the binary one, since the text form keeps
// every op exactly.
func TestTextWorkloadAgesLikeBinary(t *testing.T) {
	dir := t.TempDir()
	wl, img := filepath.Join(dir, "wl.txt"), filepath.Join(dir, "ffs.img")
	mustRun(t, "workload", "-days", "12", "-text", "-out", wl)
	mustRun(t, "age", "-workload", wl, "-policy", "ffs", "-q", "-image", img)
	got, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "ffs.img"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("fsimg age on the -text workload built an image that differs from testdata/ffs.img")
	}
}

// TestAgeRejectsUnsortedWorkload: age refuses a binary workload whose
// ops are out of stream order and names the op, rather than falling
// back to the text reader's complaint about binary bytes.
func TestAgeRejectsUnsortedWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wl.ffw")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = trace.WriteWorkload(f, &trace.Workload{Days: 2, Ops: []trace.Op{
		{Day: 1, Sec: 5, Kind: trace.OpCreate, ID: 1, Size: 100},
		{Day: 0, Sec: 5, Kind: trace.OpCreate, ID: 2, Size: 100},
	}})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{"age", "-workload", path, "-q"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "op 1 out of order") {
		t.Errorf("age on an unsorted workload: got %v, want op 1 out of order", err)
	}
}

// TestCheckKeepsRecordedPolicy is the regression test for checking an
// image under a -policy flag that defaulted to realloc: check -o on an
// image aged under ffs must save an image that records ffs and sweeps
// as the original does, with and without -repair, and from a
// checkpoint that holds the image.
func TestCheckKeepsRecordedPolicy(t *testing.T) {
	const in = "testdata/ffs.img"
	img, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "ffs.ckpt")
	if err := writeFile(ckpt, func(f io.Writer) error {
		return trace.WriteCheckpoint(f, &trace.Checkpoint{Day: 11, Image: img})
	}); err != nil {
		t.Fatal(err)
	}
	seq := func(img string) string {
		return mustRun(t, "seq", "-image", img, "-sizes", "64,96", "-total", "4194304")
	}
	want := seq(in)
	for _, args := range [][]string{{"-image", in}, {"-image", in, "-repair"}, {"-image", ckpt}} {
		out := filepath.Join(t.TempDir(), "out.img")
		mustRun(t, append([]string{"check", "-o", out}, args...)...)
		if name := recordedPolicy(t, out); name != "ffs" {
			t.Errorf("check %v -o: output records policy %q, want ffs", args, name)
		}
		if got := seq(out); got != want {
			t.Errorf("check %v -o: seq on the output:\n%s\nwant (on the input):\n%s", args, got, want)
		}
	}
}

// TestCrashRecovery tears a write partway through a 20-day aging under
// ffs, then checks the saved image, repairs it and checks the repair,
// requiring each step's exit status.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	wl, torn, repaired := filepath.Join(dir, "wl.ffw"), filepath.Join(dir, "torn.img"), filepath.Join(dir, "repaired.img")
	metrics := filepath.Join(dir, "metrics.txt")
	mustRun(t, "workload", "-days", "20", "-out", wl)
	steps := []struct {
		args []string
		code int
	}{
		{[]string{"age", "-workload", wl, "-policy", "ffs", "-q", "-faults", "tear@op:30000", "-image", torn}, 3},
		{[]string{"check", "-image", torn}, 1},
		{[]string{"check", "-image", torn, "-repair", "-o", repaired, "-metrics", metrics}, 0},
		{[]string{"check", "-image", repaired}, 0},
	}
	for _, s := range steps {
		if code := exitCode(run(s.args, io.Discard)); code != s.code {
			t.Fatalf("fsimg %s: exit %d, want %d", strings.Join(s.args, " "), code, s.code)
		}
	}
	// The lenient loader the repair used resolves the recorded policy too.
	if name := recordedPolicy(t, repaired); name != "ffs" {
		t.Errorf("repaired image records policy %q, want ffs", name)
	}
	m, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"counter fsck.inconsistent 1\n", "counter fsck.repair.shapes_fixed 1\n"} {
		if !bytes.Contains(m, []byte(line)) {
			t.Errorf("metrics snapshot lacks %q:\n%s", line, m)
		}
	}
}

// mustRun runs fsimg with args and returns its output.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("fsimg %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// recordedPolicy returns the policy name the image at path records.
func recordedPolicy(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var name string
	if _, err := ffs.LoadSavedImage(f, func(n string) (ffs.Policy, error) {
		name = n
		return core.Original{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	return name
}
