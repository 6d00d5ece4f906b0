package aging

import (
	"testing"

	"ffsage/internal/core"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/trace"
	"ffsage/internal/workload"
)

func testParams() ffs.Params {
	p := ffs.PaperParams()
	p.SizeBytes = 64 << 20
	p.NumCg = 8
	return p
}

func testWorkload(seed int64, days int) *trace.Workload {
	cfg := workload.DefaultConfig(seed)
	cfg.Days = days
	cfg.NumCg = 8
	cfg.FsBytes = 64 << 20
	cfg.ChurnBytesPerDay = 12 << 20
	cfg.ShortPairsPerDay = 60
	cfg.LongSize.MaxBytes = 4 << 20
	res, err := workload.GenerateReference(cfg)
	if err != nil {
		panic(err)
	}
	return res.GroundTruth
}

func TestGroupDirectoriesBijection(t *testing.T) {
	fsys, err := ffs.NewFileSystem(testParams(), core.Original{})
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := GroupDirectories(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != fsys.NumCg() {
		t.Fatalf("%d dirs", len(dirs))
	}
	for cg, d := range dirs {
		if fsys.InoToCg(d.Ino) != cg {
			t.Errorf("dir %s in cg %d, want %d", d.Name, fsys.InoToCg(d.Ino), cg)
		}
	}
	// Idempotent: calling again finds the same directories.
	again, err := GroupDirectories(fsys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dirs {
		if again[i] != dirs[i] {
			t.Error("second call created new directories")
		}
	}
}

func TestReplayBasics(t *testing.T) {
	wl := testWorkload(3, 12)
	res, err := Replay(testParams(), core.Original{}, wl, Options{CheckEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LayoutByDay) != 12 || len(res.UtilByDay) != 12 {
		t.Fatalf("series lengths %d/%d, want 12", len(res.LayoutByDay), len(res.UtilByDay))
	}
	for i, p := range res.LayoutByDay {
		if p.Day != i {
			t.Errorf("day %d at index %d", p.Day, i)
		}
		if p.Value < 0 || p.Value > 1 {
			t.Errorf("layout %v out of range", p.Value)
		}
	}
	if res.SkippedOps > len(wl.Ops)/100 {
		t.Errorf("%d skipped ops out of %d", res.SkippedOps, len(wl.Ops))
	}
	if err := res.Fs.Check(); err != nil {
		t.Fatal(err)
	}
	// Utilization should have grown past the starting point.
	if res.UtilByDay.Final() < 0.10 {
		t.Errorf("final utilization %v", res.UtilByDay.Final())
	}
}

func TestReplayDeterminism(t *testing.T) {
	wl := testWorkload(9, 8)
	a, err := Replay(testParams(), core.Realloc{}, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(testParams(), core.Realloc{}, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.LayoutByDay {
		if a.LayoutByDay[i] != b.LayoutByDay[i] {
			t.Fatalf("day %d: %v vs %v", i, a.LayoutByDay[i], b.LayoutByDay[i])
		}
	}
}

// The headline qualitative result (Figure 2): after identical aging,
// the realloc policy leaves less fragmentation than the original.
func TestReallocAgesBetter(t *testing.T) {
	wl := testWorkload(1996, 25)
	orig, err := Replay(testParams(), core.Original{}, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Replay(testParams(), core.Realloc{}, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o, r := orig.LayoutByDay.Final(), re.LayoutByDay.Final()
	t.Logf("final layout: original %.3f, realloc %.3f", o, r)
	if r <= o {
		t.Errorf("realloc %.3f not better than original %.3f", r, o)
	}
	// Both decline from their first day (fragmentation accumulates).
	if orig.LayoutByDay[0].Value < o {
		t.Errorf("original layout improved with age: day0 %.3f, final %.3f",
			orig.LayoutByDay[0].Value, o)
	}
}

func TestReplayHandlesRewrites(t *testing.T) {
	ops := []trace.Op{
		{Day: 0, Sec: 1, Kind: trace.OpCreate, ID: 1, Cg: 0, Size: 50 << 10},
		{Day: 0, Sec: 2, Kind: trace.OpRewrite, ID: 1, Cg: 0, Size: 80 << 10},
		{Day: 1, Sec: 1, Kind: trace.OpRewrite, ID: 2, Cg: 3, Size: 10 << 10},
		{Day: 1, Sec: 2, Kind: trace.OpDelete, ID: 1, Cg: 0},
	}
	wl := &trace.Workload{Days: 2, Ops: ops}
	res, err := Replay(testParams(), core.Original{}, wl, Options{CheckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	// ID 1 deleted; ID 2 rewritten-into-existence (rewrite of an
	// unseen file is a create).
	if res.Fs.FileCount() != 1 {
		t.Errorf("file count %d, want 1", res.Fs.FileCount())
	}
	if res.SkippedOps != 0 {
		t.Errorf("skipped %d", res.SkippedOps)
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	if _, err := Replay(testParams(), core.Original{}, &trace.Workload{}, Options{}); err == nil {
		t.Error("empty workload accepted")
	}
	bad := &trace.Workload{Days: 1, Ops: []trace.Op{
		{Day: 0, Kind: trace.OpCreate, ID: 1, Cg: 99, Size: 10},
	}}
	if _, err := Replay(testParams(), core.Original{}, bad, Options{}); err == nil {
		t.Error("bad cg accepted")
	}
	dup := &trace.Workload{Days: 1, Ops: []trace.Op{
		{Day: 0, Sec: 1, Kind: trace.OpCreate, ID: 1, Cg: 0, Size: 10},
		{Day: 0, Sec: 2, Kind: trace.OpCreate, ID: 1, Cg: 0, Size: 10},
	}}
	if _, err := Replay(testParams(), core.Original{}, dup, Options{}); err == nil {
		t.Error("duplicate create accepted")
	}
}

func TestReplaySurvivesFullDisk(t *testing.T) {
	p := testParams()
	p.SizeBytes = 8 << 20
	p.NumCg = 2
	var ops []trace.Op
	for i := 0; i < 40; i++ {
		ops = append(ops, trace.Op{
			Day: 0, Sec: float64(i), Kind: trace.OpCreate,
			ID: int64(i), Cg: int16(i % 2), Size: 1 << 20,
		})
	}
	wl := &trace.Workload{Days: 1, Ops: ops}
	res, err := Replay(p, core.Realloc{}, wl, Options{CheckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NoSpaceOps == 0 {
		t.Error("expected ENOSPC skips on a tiny disk")
	}
	if err := res.Fs.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalScoreEqualsRescan replays a workload under both
// policies and asserts that the O(1) incremental layout score recorded
// each day is bit-identical to the full O(files × blocks) rescan of
// that day's file system.
func TestIncrementalScoreEqualsRescan(t *testing.T) {
	wl := testWorkload(7, 15)
	for _, pol := range []ffs.Policy{core.Original{}, core.Realloc{}} {
		fsys, err := ffs.NewFileSystem(testParams(), pol)
		if err != nil {
			t.Fatal(err)
		}
		days := 0
		res, err := ReplayOn(fsys, wl, Options{Progress: func(day int, score, _ float64) {
			days++
			if want := layout.FsAggregate(fsys); score != want {
				t.Fatalf("%s day %d: incremental %v, rescan %v", pol.Name(), day, score, want)
			}
		}})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if days != wl.Days || len(res.LayoutByDay) != wl.Days {
			t.Fatalf("%s: %d progress calls, %d recorded days, want %d", pol.Name(), days, len(res.LayoutByDay), wl.Days)
		}
	}
}
