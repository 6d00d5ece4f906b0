package workload

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ffsage/internal/trace"
)

// fastConfig returns a small configuration for unit tests.
func fastConfig(seed int64) Config {
	c := DefaultConfig(seed)
	c.Days = 20
	c.ChurnBytesPerDay = 10 << 20
	c.ShortPairsPerDay = 50
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Days = 0 },
		func(c *Config) { c.NumCg = 0 },
		func(c *Config) { c.NumDirs = 0 },
		func(c *Config) { c.FsBytes = 0 },
		func(c *Config) { c.StartUtil = 0 },
		func(c *Config) { c.PeakUtil = 1.5 },
		func(c *Config) { c.CruiseUtil = 0.01 },
		func(c *Config) { c.RewriteFrac = 2 },
		func(c *Config) { c.MeanLiveBytes = 0 },
		func(c *Config) { c.LongSize.Sigma = 0 },
		func(c *Config) { c.ShortPairsPerDay = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestSizeDist(t *testing.T) {
	d := SizeDist{MedianBytes: 4096, Sigma: 2, MaxBytes: 1 << 20}
	rng := rand.New(rand.NewSource(7))
	var below, above int
	for i := 0; i < 4000; i++ {
		s := d.Sample(rng)
		if s < 1 || s > d.MaxBytes {
			t.Fatalf("sample %d out of range", s)
		}
		if s < 4096 {
			below++
		} else {
			above++
		}
	}
	// The median should split samples roughly evenly.
	ratio := float64(below) / 4000
	if ratio < 0.42 || ratio > 0.58 {
		t.Errorf("fraction below median = %v, want ≈ 0.5", ratio)
	}
	if d.MeanBytes() < 4096 {
		t.Error("lognormal mean below median")
	}
}

func TestWorkdaySecInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		s := workdaySec(rng)
		if s < 0 || s >= 86400 {
			t.Fatalf("workdaySec = %v", s)
		}
	}
}

func TestReferenceInvariants(t *testing.T) {
	res, err := GenerateReference(fastConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) != 20 {
		t.Fatalf("%d snapshots", len(res.Snapshots))
	}
	// Ops sorted; every delete follows a create of the same ID; no
	// double-creates of a live ID.
	live := map[int64]bool{}
	var prev trace.Op
	for i, op := range res.GroundTruth.Ops {
		if i > 0 && op.Compare(prev) < 0 {
			t.Fatalf("ops out of order at %d", i)
		}
		prev = op
		switch op.Kind {
		case trace.OpCreate:
			if live[op.ID] {
				t.Fatalf("create of live id %d", op.ID)
			}
			live[op.ID] = true
		case trace.OpDelete:
			if !live[op.ID] {
				t.Fatalf("delete of dead id %d", op.ID)
			}
			delete(live, op.ID)
		case trace.OpRewrite:
			if !live[op.ID] {
				t.Fatalf("rewrite of dead id %d", op.ID)
			}
		}
		if op.Cg < 0 || op.Cg >= 27 {
			t.Fatalf("op cg %d", op.Cg)
		}
	}
	// Snapshot files never include short-lived IDs (negative).
	for _, s := range res.Snapshots {
		for _, f := range s.Files {
			if f.Ino < 0 {
				t.Fatal("short-lived file leaked into a snapshot")
			}
		}
		for i := 1; i < len(s.Files); i++ {
			if s.Files[i].Ino <= s.Files[i-1].Ino {
				t.Fatal("snapshot not sorted by ino")
			}
		}
	}
	// Live count at the end matches the last snapshot.
	if res.EndLiveFiles != len(res.Snapshots[len(res.Snapshots)-1].Files) {
		t.Errorf("EndLiveFiles %d != last snapshot %d",
			res.EndLiveFiles, len(res.Snapshots[len(res.Snapshots)-1].Files))
	}
}

func TestReferenceDeterminism(t *testing.T) {
	a, err := GenerateReference(fastConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateReference(fastConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.GroundTruth.Ops) != len(b.GroundTruth.Ops) {
		t.Fatalf("op counts differ: %d vs %d", len(a.GroundTruth.Ops), len(b.GroundTruth.Ops))
	}
	for i := range a.GroundTruth.Ops {
		if a.GroundTruth.Ops[i] != b.GroundTruth.Ops[i] {
			t.Fatalf("op %d differs", i)
		}
	}
	c, err := GenerateReference(fastConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.GroundTruth.Ops) == len(c.GroundTruth.Ops) &&
		a.GroundTruth.Ops[0] == c.GroundTruth.Ops[0] {
		t.Error("different seeds produced identical streams")
	}
}

func TestDiffReconstruction(t *testing.T) {
	// Hand-built snapshots exercising each heuristic.
	day0 := trace.Snapshot{Day: 0, Files: []trace.FileMeta{
		{Ino: 100, Size: 5000, CTime: 3600},
		{Ino: 200, Size: 9000, CTime: 7200},
	}}
	day1 := trace.Snapshot{Day: 1, Files: []trace.FileMeta{
		{Ino: 100, Size: 5000, CTime: 3600},       // unchanged
		{Ino: 300, Size: 777, CTime: 86400 + 600}, // created day 1
	}}
	day2 := trace.Snapshot{Day: 2, Files: []trace.FileMeta{
		{Ino: 100, Size: 6000, CTime: 2*86400 + 100}, // modified day 2
		{Ino: 300, Size: 777, CTime: 86400 + 600},
	}}
	wl, err := Diff([]trace.Snapshot{day0, day1, day2}, 27, 4800, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if wl.Days != 3 {
		t.Errorf("days = %d", wl.Days)
	}
	var kinds []string
	for _, op := range wl.Ops {
		kinds = append(kinds, op.Kind.String())
	}
	// Expected: create 100 (day 0), create 200 (day 0), create 300
	// (day 1), delete 200 (day 1), rewrite 100 (day 2).
	want := map[trace.OpKind]int{trace.OpCreate: 3, trace.OpDelete: 1, trace.OpRewrite: 1}
	got := map[trace.OpKind]int{}
	for _, op := range wl.Ops {
		got[op.Kind]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%v: %d ops, want %d (%v)", k, got[k], n, kinds)
		}
	}
	for _, op := range wl.Ops {
		if op.ID == 200 && op.Kind == trace.OpDelete && op.Day != 1 {
			t.Errorf("delete of 200 on day %d, want 1", op.Day)
		}
		if op.ID == 100 && op.Kind == trace.OpRewrite && op.Size != 6000 {
			t.Errorf("rewrite size %d", op.Size)
		}
	}
}

func TestDiffErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Diff(nil, 27, 4800, rng); err == nil {
		t.Error("empty snapshots accepted")
	}
	snaps := []trace.Snapshot{{Day: 5}, {Day: 5}}
	if _, err := Diff(snaps, 27, 4800, rng); err == nil {
		t.Error("out-of-order snapshots accepted")
	}
	if _, err := Diff([]trace.Snapshot{{Day: -1}}, 27, 4800, rng); err == nil {
		t.Error("snapshot of a negative day accepted")
	}
	if _, err := Diff([]trace.Snapshot{{Day: 0}}, 0, 4800, rng); err == nil {
		t.Error("bad geometry accepted")
	}
	for _, inos := range [][]int64{{7, 3}, {3, 3}} {
		files := []trace.FileMeta{{Ino: inos[0]}, {Ino: inos[1]}}
		if _, err := Diff([]trace.Snapshot{{Day: 0, Files: files}}, 27, 4800, rng); err == nil {
			t.Errorf("snapshot with inodes %v accepted", inos)
		}
	}
}

// Property: replaying the diffed workload reproduces the live-file set
// of every snapshot (same IDs and sizes).
func TestQuickDiffReplaysToSnapshots(t *testing.T) {
	f := func(seed int64) bool {
		cfg := fastConfig(seed)
		cfg.Days = 10
		res, err := GenerateReference(cfg)
		if err != nil {
			return false
		}
		wl, err := Diff(res.Snapshots, cfg.NumCg, cfg.InodesPerGroup, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		// Replay op stream into a map, checking against each snapshot
		// at end of day.
		live := map[int64]int64{}
		i := 0
		for _, snap := range res.Snapshots {
			for i < len(wl.Ops) && wl.Ops[i].Day <= snap.Day {
				op := wl.Ops[i]
				switch op.Kind {
				case trace.OpCreate, trace.OpRewrite:
					live[op.ID] = op.Size
				case trace.OpDelete:
					delete(live, op.ID)
				}
				i++
			}
			if len(live) != len(snap.Files) {
				return false
			}
			for _, f := range snap.Files {
				if live[f.Ino] != f.Size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestNFSTraceGeneration(t *testing.T) {
	cfg := DefaultNFSTraceConfig(9)
	days, err := GenerateNFSTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != cfg.Days {
		t.Fatalf("%d days", len(days))
	}
	total := 0
	for _, d := range days {
		total += len(d.Files)
		for _, f := range d.Files {
			if f.CreateSec < 0 || f.DeleteSec >= 86400 || f.DeleteSec < f.CreateSec {
				t.Fatalf("bad lifetime %+v", f)
			}
			if f.Dir < 0 || f.Dir >= cfg.NumDirs {
				t.Fatalf("bad dir %d", f.Dir)
			}
			if f.Size < 1 {
				t.Fatalf("bad size %d", f.Size)
			}
		}
	}
	mean := float64(total) / float64(len(days))
	if mean < cfg.PairsPerDay/3 || mean > cfg.PairsPerDay*3 {
		t.Errorf("mean pairs/day = %v, config %v", mean, cfg.PairsPerDay)
	}
	if _, err := GenerateNFSTrace(NFSTraceConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestMergeAddsShortLived(t *testing.T) {
	base := &trace.Workload{Days: 2, Ops: []trace.Op{
		{Day: 0, Sec: 100, Kind: trace.OpCreate, ID: 1, Cg: 5, Size: 100},
		{Day: 0, Sec: 200, Kind: trace.OpCreate, ID: 2, Cg: 5, Size: 100},
		{Day: 1, Sec: 100, Kind: trace.OpCreate, ID: 3, Cg: 7, Size: 100},
	}}
	tdays := []trace.TraceDay{{Files: []trace.ShortLivedFile{
		{Dir: 0, CreateSec: 40000, DeleteSec: 41000, Size: 500},
		{Dir: 0, CreateSec: 42000, DeleteSec: 43000, Size: 600},
		{Dir: 1, CreateSec: 50000, DeleteSec: 51000, Size: 700},
	}}}
	merged, err := Merge(base, tdays, 27, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// 3 base + 2 days × 3 pairs × 2 ops.
	if len(merged.Ops) != 3+12 {
		t.Fatalf("%d ops", len(merged.Ops))
	}
	// The busiest trace dir (0, two files) must join the busiest group
	// of each day (day 0: cg 5; day 1: cg 7).
	for _, op := range merged.Ops {
		if !op.ShortLived {
			continue
		}
		if op.ID >= 0 {
			t.Error("short-lived op with non-negative id")
		}
	}
	day0cg, day1cg := map[int]int{}, map[int]int{}
	for _, op := range merged.Ops {
		if op.ShortLived && op.Kind == trace.OpCreate {
			if op.Day == 0 {
				day0cg[op.Cg]++
			} else {
				day1cg[op.Cg]++
			}
		}
	}
	if day0cg[5] != 2 {
		t.Errorf("day 0 busiest group got %v", day0cg)
	}
	if day1cg[7] != 2 {
		t.Errorf("day 1 busiest group got %v", day1cg)
	}
	// Base must not be modified.
	if len(base.Ops) != 3 {
		t.Error("merge mutated input")
	}
}

func TestMergeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := &trace.Workload{Days: 1}
	if _, err := Merge(base, nil, 27, rng); err == nil {
		t.Error("no trace days accepted")
	}
	if _, err := Merge(base, []trace.TraceDay{{}}, 0, rng); err == nil {
		t.Error("bad group count accepted")
	}
}

func TestMergeTimeShiftKeepsOrdering(t *testing.T) {
	base := &trace.Workload{Days: 1, Ops: []trace.Op{
		{Day: 0, Sec: 86000, Kind: trace.OpCreate, ID: 1, Cg: 0, Size: 10},
	}}
	// A pair near end of day: the shift toward the base peak must keep
	// delete after create.
	tdays := []trace.TraceDay{{Files: []trace.ShortLivedFile{
		{Dir: 0, CreateSec: 86300, DeleteSec: 86399, Size: 10},
	}}}
	merged, err := Merge(base, tdays, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var cs, ds float64 = -1, -1
	for _, op := range merged.Ops {
		if op.ShortLived && op.Kind == trace.OpCreate {
			cs = op.Sec
		}
		if op.ShortLived && op.Kind == trace.OpDelete {
			ds = op.Sec
		}
	}
	if cs < 0 || ds <= cs {
		t.Errorf("create at %v, delete at %v", cs, ds)
	}
}

func TestBuildPaperWorkloadSmall(t *testing.T) {
	cfg := fastConfig(77)
	nfs := DefaultNFSTraceConfig(78)
	nfs.PairsPerDay = 40 // scale the trace to the small reference
	b, err := BuildWorkload(cfg, nfs)
	if err != nil {
		t.Fatal(err)
	}
	gt := b.Reference.GroundTruth.Summarize()
	rc := b.Reconstructed.Summarize()
	if gt.Ops == 0 || rc.Ops == 0 {
		t.Fatal("empty workloads")
	}
	// The reconstruction loses intra-day activity: it must not see
	// more distinct long-lived operations than the truth, and both
	// must be broadly similar in magnitude.
	if math.Abs(float64(rc.Ops-gt.Ops)) > 0.8*float64(gt.Ops) {
		t.Errorf("op counts wildly different: truth %d, reconstructed %d", gt.Ops, rc.Ops)
	}
	if b.Reconstructed.Days != cfg.Days {
		t.Errorf("days = %d", b.Reconstructed.Days)
	}
}

// pickDirPerPick is the generator's former directory pick, kept as the
// reference model: it recomputes every directory's weight twice per
// draw.
func pickDirPerPick(r *reference, rng *rand.Rand, day int) int {
	total := 0.0
	for d := range r.dirBase {
		total += r.dirWeight(d, day)
	}
	x := rng.Float64() * total
	for d := range r.dirBase {
		x -= r.dirWeight(d, day)
		if x <= 0 {
			return d
		}
	}
	return len(r.dirBase) - 1
}

// TestPickDirMatchesPerPickLoop checks that weighing the directories
// once per day picks exactly what the per-pick loop picked, draw for
// draw, over a year of days and both directory counts in use.
func TestPickDirMatchesPerPickLoop(t *testing.T) {
	for _, numDirs := range []int{1, 7, DefaultConfig(1).NumDirs} {
		cfg := DefaultConfig(int64(numDirs))
		cfg.NumDirs = numDirs
		r := newReference(cfg)
		model := rand.New(rand.NewSource(99))
		r.rng = rand.New(rand.NewSource(99))
		for day := 0; day < 366; day++ {
			r.weighDirs(day)
			for draw := 0; draw < 200; draw++ {
				if got, want := r.pickDir(), pickDirPerPick(r, model, day); got != want {
					t.Fatalf("%d dirs, day %d, draw %d: pickDir = %d, per-pick loop = %d", numDirs, day, draw, got, want)
				}
			}
		}
	}
}

// diffMaps is Diff's former body, kept as the reference model for the
// merge walk: two inode-keyed maps, deletions sorted before their times
// are drawn.
func diffMaps(snaps []trace.Snapshot, numCg, ipg int, rng *rand.Rand) []trace.Op {
	inoCg := func(ino int64) int { return int(ino/int64(ipg)) % numCg }
	var ops []trace.Op
	prev := map[int64]trace.FileMeta{}
	for _, snap := range snaps {
		cur := map[int64]trace.FileMeta{}
		loSec, hiSec := 9.0*3600, 18.0*3600
		noteTime := func(ctime float64) {
			sec := ctime - float64(snap.Day)*86400
			if sec < 0 || sec >= 86400 {
				return
			}
			if sec < loSec {
				loSec = sec
			}
			if sec > hiSec {
				hiSec = sec
			}
		}
		for _, f := range snap.Files {
			if f.IsDir {
				continue
			}
			cur[f.Ino] = f
			old, existed := prev[f.Ino]
			kind := trace.OpCreate
			if existed {
				if old.CTime == f.CTime && old.Size == f.Size {
					continue
				}
				kind = trace.OpRewrite
			}
			day, sec := splitCTime(f.CTime, snap.Day)
			noteTime(f.CTime)
			ops = append(ops, trace.Op{Day: day, Sec: sec, Kind: kind, ID: f.Ino, Cg: inoCg(f.Ino), Size: f.Size})
		}
		var dead []int64
		for ino := range prev {
			if _, still := cur[ino]; !still {
				dead = append(dead, ino)
			}
		}
		sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
		for _, ino := range dead {
			sec := loSec + rng.Float64()*(hiSec-loSec)
			ops = append(ops, trace.Op{Day: snap.Day, Sec: sec, Kind: trace.OpDelete, ID: ino, Cg: inoCg(ino)})
		}
		prev = cur
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Compare(ops[j]) < 0 })
	return ops
}

// TestDiffMatchesMapModel runs Diff and the map-based model on random
// snapshot series — files appearing, changing, vanishing, and inodes
// switching between file and directory — and requires equal streams.
func TestDiffMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var snaps []trace.Snapshot
		for day := 0; day < 12; day++ {
			var files []trace.FileMeta
			for ino := int64(0); ino < 60; ino++ {
				if rng.Intn(3) == 0 {
					continue
				}
				files = append(files, trace.FileMeta{
					Ino:   ino,
					Size:  int64(1 + rng.Intn(3)),
					CTime: float64(rng.Intn(day+1))*86400 + float64(rng.Intn(4))*3600,
					IsDir: rng.Intn(8) == 0,
				})
			}
			snaps = append(snaps, trace.Snapshot{Day: day, Files: files})
		}
		got, err := Diff(snaps, 4, 16, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		want := diffMaps(snaps, 4, 16, rand.New(rand.NewSource(seed)))
		if !slices.Equal(got.Ops, want) {
			t.Fatalf("seed %d: Diff differs from the map model (%d vs %d ops)", seed, len(got.Ops), len(want))
		}
	}
	res, err := GenerateReference(fastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Diff(res.Snapshots, 27, 4800, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if want := diffMaps(res.Snapshots, 27, 4800, rand.New(rand.NewSource(5))); !slices.Equal(got.Ops, want) {
		t.Fatal("Diff of generated snapshots differs from the map model")
	}
}
