package perfbench

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	"ffsage/internal/aging"
	"ffsage/internal/bench"
	"ffsage/internal/bitset"
	"ffsage/internal/core"
	"ffsage/internal/disk"
	"ffsage/internal/experiments"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/obs"
	"ffsage/internal/policy"
	"ffsage/internal/trace"
	"ffsage/internal/workload"
)

// All returns the benchmark registry in its canonical order. Every
// entry measures a code path the reproduction actually exercises; the
// Quick subset is what CI's bench-smoke job runs on each push.
func All() []Benchmark {
	bs := []Benchmark{
		{Name: "bitset.runscan", Quick: true, Setup: setupBitsetRunScan},
		{Name: "ffs.alloc.ffs", Quick: true, Setup: setupAlloc(core.Original{})},
		{Name: "ffs.alloc.realloc", Quick: true, Setup: setupAlloc(core.Realloc{})},
		{Name: "aging.day", Quick: true, Setup: setupAgingDay},
		{Name: "aging.publish", Quick: true, Setup: setupAgingPublish},
		{Name: "replay.steady", Quick: true, Setup: setupReplaySteady, CheckAllocs: true, MaxAllocsPerOp: 0},
		{Name: "span.emit", Quick: true, Setup: setupSpanEmit, CheckAllocs: true, MaxAllocsPerOp: 0},
		{Name: "layout.rescan", Quick: true, Setup: setupLayoutRescan},
		{Name: "layout.incremental", Quick: true, Setup: setupLayoutIncremental},
		{Name: "disk.requests", Quick: true, Setup: setupDiskRequests},
		{Name: "ffs.clone", Quick: true, Setup: setupClone},
		{Name: "checkpoint.encode", Quick: true, Setup: setupCheckpointEncode},
		{Name: "checkpoint.decode", Quick: true, Setup: setupCheckpointDecode},
		{Name: "obs.writespans", Quick: true, Setup: setupWriteSpans},
		{Name: "workload.build", Quick: true, Setup: setupWorkloadBuild},
		{Name: "trace.hash", Quick: true, Setup: setupTraceHash, CheckAllocs: true, MaxAllocsPerOp: 0.01},
		{Name: "trace.sortops", Quick: true, Setup: setupSortOps, CheckAllocs: true, MaxAllocsPerOp: 0},
		{Name: "bench.seqsweep", Quick: false, Setup: setupSeqSweep},
		{Name: "bench.hotfiles", Quick: true, Setup: setupHotFiles},
	}
	// One FlushCluster micro per registered policy (the benchmark name
	// uses the slug, so -run regexes never meet a '+').
	for _, name := range policy.Names() {
		bs = append(bs, Benchmark{
			Name:  "policy.flushcluster." + policy.Slug(name),
			Quick: true,
			Setup: setupFlushCluster(name),
		})
	}
	return bs
}

// setupFlushCluster measures one policy's write-time relocation path: a
// state-neutral cycle creating and deleting cluster-spanning files on a
// clone of the aged (fragmented) micro image with the named policy
// swapped in. Every create flushes full-block runs through the policy's
// FlushCluster against an aged free map — the free-run scans, the
// cluster claim, and the old-run frees are all on the measured path.
func setupFlushCluster(name string) func(fx *Fixture) (*Instance, error) {
	return func(fx *Fixture) (*Instance, error) {
		pol, err := policy.New(name)
		if err != nil {
			return nil, err
		}
		fsys := fx.AgedFFS.Fs.Clone().WithPolicy(pol)
		// The aged image sits near the minfree reserve; the cycle's
		// transient working set may legitimately dip into it.
		fsys.IgnoreReserve = true
		root := fsys.Root()
		const perOp = 16
		clusterBytes := int64(fx.Cfg.FsParams.MaxContig * fx.Cfg.FsParams.BlockSize)
		op := func() error {
			files := make([]*ffs.File, perOp)
			for i := range files {
				f, err := fsys.CreateFile(root, fmt.Sprintf("pb%02d", i), clusterBytes, 0)
				if err != nil {
					return err
				}
				files[i] = f
			}
			for _, f := range files {
				if err := fsys.Delete(f); err != nil {
					return err
				}
			}
			return nil
		}
		// Prime once: settles the arena and directory tables, and proves
		// the cycle is state-neutral enough to repeat.
		if err := op(); err != nil {
			return nil, err
		}
		if name != "ffs" && fsys.Stats.ClusterAttempts == 0 {
			return nil, fmt.Errorf("policy.flushcluster.%s: relocation machinery never engaged", policy.Slug(name))
		}
		return &Instance{Op: op, Units: perOp}, nil
	}
}

// Names returns the registered benchmark names in registry order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	return names
}

// setupBitsetRunScan measures the word-wise free-map scans the
// allocator leans on: FindRun/FindRunNearest sweeps over a seeded,
// moderately fragmented map — the access pattern of block allocation
// on an aged file system.
func setupBitsetRunScan(fx *Fixture) (*Instance, error) {
	const nbits = 1 << 17
	rng := rand.New(rand.NewSource(fx.Seed))
	s := bitset.New(nbits)
	// ~55% occupancy in clustered runs, the shape of an aged free map.
	for s.Count() < nbits*55/100 {
		start := rng.Intn(nbits)
		run := 1 + rng.Intn(24)
		if start+run > nbits {
			run = nbits - start
		}
		s.SetRange(start, start+run)
	}
	prefs := make([]int, 64)
	for i := range prefs {
		prefs[i] = rng.Intn(nbits)
	}
	var units int64
	op := func() error {
		sink := 0
		for run := 1; run <= 64; run *= 2 {
			sink += s.FindRun(0, nbits, run)
			for _, p := range prefs {
				sink += s.FindRunNearest(0, nbits, run, p)
			}
		}
		if sink == 0 {
			return fmt.Errorf("bitset.runscan: degenerate sink")
		}
		return nil
	}
	units = int64(7 * (1 + len(prefs))) // 7 run lengths × (FindRun + nearest sweeps)
	return &Instance{Op: op, Units: units}, nil
}

// setupAlloc measures the block-allocation path end to end by
// replaying the micro workload onto a fresh file system under the
// given policy. The plain-vs-realloc pair is the paper's comparison
// applied to our own allocator implementation.
func setupAlloc(policy ffs.Policy) func(fx *Fixture) (*Instance, error) {
	return func(fx *Fixture) (*Instance, error) {
		wl := fx.Build.Reconstructed
		op := func() error {
			_, err := aging.Replay(fx.Cfg.FsParams, policy, wl, aging.Options{})
			return err
		}
		return &Instance{Op: op, Units: int64(len(wl.Ops))}, nil
	}
}

// setupAgingDay measures single-day replay throughput: the micro
// workload's busiest day, rebased to day zero and replayed onto a
// fresh file system. ops/s falls out of Units; MB/s comes from the
// alloc.bytes_written counter the priming run published — the replay's
// own deterministic accounting, not a re-measurement.
func setupAgingDay(fx *Fixture) (*Instance, error) {
	day := busiestDay(fx.Build.Reconstructed)
	var ops []trace.Op
	for _, o := range fx.Build.Reconstructed.Ops {
		if int(o.Day) == day {
			o.Day = 0
			ops = append(ops, o)
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("perfbench: micro workload has no ops on day %d", day)
	}
	wl := &trace.Workload{Days: 1, Ops: ops}
	var primed *aging.Result
	op := func() error {
		res, err := aging.Replay(fx.Cfg.FsParams, core.Original{}, wl, aging.Options{})
		if err != nil {
			return err
		}
		primed = res
		return nil
	}
	// Prime once so the day's metrics are published before measurement.
	if err := op(); err != nil {
		return nil, err
	}
	fx.dayOnce.Do(func() {
		aging.PublishResult(fx.Obs.Scope("aging.day"), primed, wl)
	})
	inst := &Instance{Op: op, Units: int64(len(ops))}
	inst.Metrics = func(medianSec float64) map[string]float64 {
		written, err := fx.counter("aging.day.alloc.bytes_written")
		if err != nil || medianSec <= 0 {
			return nil
		}
		return map[string]float64{"mb_per_s": float64(written) / 1e6 / medianSec}
	}
	return inst, nil
}

// setupAgingPublish measures aging.PublishResult on the micro image's
// ffs+realloc replay: the counters, the per-day event stream and the
// span stream one aging arm publishes after the runner's barrier. Each
// repetition publishes into a fresh registry, so every one does the
// same work; a unit is one op of the workload.
func setupAgingPublish(fx *Fixture) (*Instance, error) {
	wl := fx.Build.Reconstructed
	op := func() error {
		aging.PublishResult(obs.NewRegistry().Scope("aging.publish"), fx.AgedRealloc, wl)
		return nil
	}
	return &Instance{Op: op, Units: int64(len(wl.Ops))}, nil
}

// setupReplaySteady measures the steady-state replay loop with a
// state-neutral operation cycle: a fixed set of files is created and
// deleted through aging.Stepper — the exact production op path — so
// every repetition starts and ends with the same live-file population.
// After the warmup cycles (which grow the File arena, the directory
// entry tables, and the ID/name caches to their steady sizes) the
// cycle performs zero heap allocations per operation; the benchmark
// carries a hard allocs/op budget of 0 that -check enforces, and
// TestSteadyReplayZeroAllocs pins the same property with
// testing.AllocsPerRun.
func setupReplaySteady(fx *Fixture) (*Instance, error) {
	fsys, err := ffs.NewFileSystem(fx.Cfg.FsParams, core.Realloc{})
	if err != nil {
		return nil, err
	}
	st, err := aging.NewStepper(fsys)
	if err != nil {
		return nil, err
	}
	ops := steadyCycle(fx.Cfg.FsParams.NumCg, fx.Seed)
	op := func() error {
		for i := range ops {
			if err := st.Apply(ops[i]); err != nil {
				return err
			}
		}
		if st.NoSpace > 0 {
			return fmt.Errorf("replay.steady: cycle ran out of space")
		}
		return nil
	}
	// Two priming cycles: the first populates the caches and pools, the
	// second lets recycled capacities settle.
	if err := op(); err != nil {
		return nil, err
	}
	if err := op(); err != nil {
		return nil, err
	}
	return &Instance{Op: op, Units: int64(len(ops))}, nil
}

// setupSpanEmit measures the span tracer's steady-state emission path:
// nested Start/End pairs with mixed-type attributes against a warmed
// ring, the shape PublishResult drives per replay op. After warmup the
// ring slots, the open stack, and each slot's attr backing are at
// capacity and every emission reuses them; the benchmark carries a hard
// allocs/op budget of 0 that -check enforces, mirroring
// TestSpanEmitSteadyStateAllocs.
func setupSpanEmit(fx *Fixture) (*Instance, error) {
	tr := obs.NewRegistry().TracerCap("bench", obs.SpanLines, 256)
	const cycles = 512
	op := func() error {
		t := 0.0
		for i := 0; i < cycles; i++ {
			tr.Start(t, "outer", obs.I("file", int64(i)), obs.S("kind", "create"))
			tr.Start(t+0.25, "alloc", obs.F("bytes", 4096))
			tr.End(t+0.5, obs.B("contig", true))
			tr.End(t + 1)
			t += 1
		}
		if tr.OpenDepth() != 0 {
			return fmt.Errorf("span.emit: unbalanced cycle left %d spans open", tr.OpenDepth())
		}
		return nil
	}
	// Two warmup ops: the first grows the ring to capacity, the second
	// lets recycled attr backings settle.
	if err := op(); err != nil {
		return nil, err
	}
	if err := op(); err != nil {
		return nil, err
	}
	return &Instance{Op: op, Units: 2 * cycles}, nil
}

// setupWriteSpans measures the JSONL span export of both aged micro
// replays, the dump `repro -spans-jsonl` writes. The streams are
// published into a private registry, so benchmarks that publish into
// the fixture's cannot change the work.
func setupWriteSpans(fx *Fixture) (*Instance, error) {
	reg := obs.NewRegistry()
	aging.PublishResult(reg.Scope("aging.micro-ffs"), fx.AgedFFS, fx.Build.Reconstructed)
	aging.PublishResult(reg.Scope("aging.micro-realloc"), fx.AgedRealloc, fx.Build.Reconstructed)
	var buf bytes.Buffer
	if err := reg.WriteSpans(&buf); err != nil {
		return nil, err
	}
	size, lines := buf.Len(), bytes.Count(buf.Bytes(), []byte{'\n'})
	op := func() error {
		buf.Reset()
		return reg.WriteSpans(&buf)
	}
	inst := &Instance{Op: op, Units: int64(lines)}
	inst.Metrics = func(medianSec float64) map[string]float64 {
		if medianSec <= 0 {
			return nil
		}
		return map[string]float64{"mb_per_s": float64(size) / 1e6 / medianSec}
	}
	return inst, nil
}

// steadyCycle builds one state-neutral op cycle: create a working set
// of files across every group (sizes spanning the frag, full-block,
// and indirect paths), rewrite a third of them, then delete them all.
func steadyCycle(numCg int, seed int64) []trace.Op {
	rng := rand.New(rand.NewSource(seed + 3))
	sizes := []int64{600, 2 << 10, 7 << 10, 64 << 10, 300 << 10}
	const perCg = 8
	var ops []trace.Op
	id := int64(1)
	var created []trace.Op
	for cg := 0; cg < numCg; cg++ {
		for k := 0; k < perCg; k++ {
			op := trace.Op{
				Day: 0, Sec: float64(len(ops)), Kind: trace.OpCreate,
				ID: id, Cg: int16(cg), Size: sizes[rng.Intn(len(sizes))],
			}
			ops = append(ops, op)
			created = append(created, op)
			id++
		}
	}
	for i, c := range created {
		if i%3 == 0 {
			ops = append(ops, trace.Op{
				Day: 0, Sec: float64(len(ops)), Kind: trace.OpRewrite,
				ID: c.ID, Cg: c.Cg, Size: c.Size,
			})
		}
	}
	for _, c := range created {
		ops = append(ops, trace.Op{
			Day: 0, Sec: float64(len(ops)), Kind: trace.OpDelete,
			ID: c.ID, Cg: c.Cg,
		})
	}
	return ops
}

// busiestDay returns the day carrying the most operations (lowest day
// wins ties, so the choice is deterministic).
func busiestDay(wl *trace.Workload) int {
	counts := make([]int, wl.Days+1)
	for _, o := range wl.Ops {
		if o.Day >= 0 && int(o.Day) < len(counts) {
			counts[o.Day]++
		}
	}
	best, bestN := 0, -1
	for d, n := range counts {
		if n > bestN {
			best, bestN = d, n
		}
	}
	return best
}

// setupLayoutRescan measures the full O(files × blocks) layout rescan
// over the aged image — the independent cross-check of the
// incremental layout score.
func setupLayoutRescan(fx *Fixture) (*Instance, error) {
	fsys := fx.AgedFFS.Fs
	op := func() error {
		if agg := layout.FsAggregate(fsys); agg < 0 || agg > 1 {
			return fmt.Errorf("layout.rescan: aggregate %v out of range", agg)
		}
		return nil
	}
	return &Instance{Op: op, Units: 1}, nil
}

// setupLayoutIncremental measures the allocator-maintained O(1)
// counters the daily score now comes from; the loop amortizes the
// sub-nanosecond read into a measurable work unit.
func setupLayoutIncremental(fx *Fixture) (*Instance, error) {
	const inner = 4096
	fsys := fx.AgedFFS.Fs
	want := layout.FsAggregate(fsys)
	if got := fsys.LayoutScore(); got != want {
		return nil, fmt.Errorf("perfbench: incremental score %v != rescan %v", got, want)
	}
	op := func() error {
		var sink float64
		for i := 0; i < inner; i++ {
			sink += fsys.LayoutScore()
		}
		if sink < 0 {
			return fmt.Errorf("layout.incremental: negative sink")
		}
		return nil
	}
	return &Instance{Op: op, Units: inner}, nil
}

// setupDiskRequests measures the disk model's request loop: a seeded,
// fixed mix of sequential bursts and random jumps, reads and writes,
// on a fresh disk per repetition (so cache state is identical every
// time). The MB/s metric reuses the disk's own Stats accounting from a
// priming run.
func setupDiskRequests(fx *Fixture) (*Instance, error) {
	p := fx.Cfg.DiskParams
	total := p.Geom.TotalSectors()
	rng := rand.New(rand.NewSource(fx.Seed + 2))
	type req struct {
		lba   int64
		nsect int
		write bool
	}
	const nreqs = 4096
	reqs := make([]req, 0, nreqs)
	lba := int64(0)
	for len(reqs) < nreqs {
		// A burst of sequential requests from a random start, ~30% writes.
		lba = rng.Int63n(total - 1024)
		burst := 1 + rng.Intn(8)
		write := rng.Float64() < 0.3
		for b := 0; b < burst && len(reqs) < nreqs; b++ {
			nsect := 8 << rng.Intn(4) // 8..64 sectors
			reqs = append(reqs, req{lba, nsect, write})
			lba += int64(nsect)
		}
	}
	op := func() error {
		d := disk.New(p)
		for _, r := range reqs {
			if r.write {
				d.Write(r.lba, r.nsect)
			} else {
				d.Read(r.lba, r.nsect)
			}
		}
		return nil
	}
	// Prime once for the deterministic byte count.
	d := disk.New(p)
	for _, r := range reqs {
		if r.write {
			d.Write(r.lba, r.nsect)
		} else {
			d.Read(r.lba, r.nsect)
		}
	}
	st := d.Stats()
	bytesMoved := (st.SectorsRead + st.SectorsWritten) * int64(p.Geom.SectorSize)
	inst := &Instance{Op: op, Units: nreqs}
	inst.Metrics = func(medianSec float64) map[string]float64 {
		if medianSec <= 0 {
			return nil
		}
		return map[string]float64{"mb_per_s": float64(bytesMoved) / 1e6 / medianSec}
	}
	return inst, nil
}

// setupClone measures ffs.Clone of the aged realloc image — the cost
// every cached-image consumer and every benchmark run pays.
func setupClone(fx *Fixture) (*Instance, error) {
	fsys := fx.AgedRealloc.Fs
	op := func() error {
		if c := fsys.Clone(); c == nil {
			return fmt.Errorf("ffs.clone: nil clone")
		}
		return nil
	}
	return &Instance{Op: op, Units: 1}, nil
}

// fixtureCheckpoint builds the checkpoint the codec benchmarks
// exercise: the aged micro image with its replay cursor and series,
// exactly what aging emits at a checkpoint boundary.
func fixtureCheckpoint(fx *Fixture) (*trace.Checkpoint, error) {
	wl := fx.Build.Reconstructed
	res := fx.AgedFFS
	var img bytes.Buffer
	if err := res.Fs.SaveImage(&img); err != nil {
		return nil, fmt.Errorf("perfbench: serializing fixture image: %w", err)
	}
	return &trace.Checkpoint{
		Day:          wl.Days - 1,
		NextOp:       len(wl.Ops),
		SkippedOps:   int64(res.SkippedOps),
		NoSpaceOps:   int64(res.NoSpaceOps),
		FaultedOps:   int64(res.FaultedOps),
		LayoutByDay:  res.LayoutByDay.Values(),
		UtilByDay:    res.UtilByDay.Values(),
		WorkloadHash: trace.HashWorkload(wl),
		Image:        img.Bytes(),
	}, nil
}

// setupCheckpointEncode measures checkpoint serialization (varint
// payload + CRC).
func setupCheckpointEncode(fx *Fixture) (*Instance, error) {
	cp, err := fixtureCheckpoint(fx)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.WriteCheckpoint(&buf, cp); err != nil {
		return nil, err
	}
	size := buf.Len()
	op := func() error {
		buf.Reset()
		return trace.WriteCheckpoint(&buf, cp)
	}
	inst := &Instance{Op: op, Units: 1}
	inst.Metrics = func(medianSec float64) map[string]float64 {
		if medianSec <= 0 {
			return nil
		}
		return map[string]float64{"mb_per_s": float64(size) / 1e6 / medianSec}
	}
	return inst, nil
}

// setupCheckpointDecode measures checkpoint deserialization, CRC check
// included.
func setupCheckpointDecode(fx *Fixture) (*Instance, error) {
	cp, err := fixtureCheckpoint(fx)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.WriteCheckpoint(&buf, cp); err != nil {
		return nil, err
	}
	enc := buf.Bytes()
	op := func() error {
		_, err := trace.ReadCheckpoint(bytes.NewReader(enc))
		return err
	}
	inst := &Instance{Op: op, Units: 1}
	inst.Metrics = func(medianSec float64) map[string]float64 {
		if medianSec <= 0 {
			return nil
		}
		return map[string]float64{"mb_per_s": float64(len(enc)) / 1e6 / medianSec}
	}
	return inst, nil
}

// setupWorkloadBuild measures the uncached Section 3.1 pipeline at
// micro scale: reference simulation, snapshots, diff, NFS merge.
func setupWorkloadBuild(fx *Fixture) (*Instance, error) {
	wc, nc := fx.Cfg.WorkloadCfg, fx.Cfg.NFSCfg
	op := func() error {
		_, err := workload.BuildWorkload(wc, nc)
		return err
	}
	return &Instance{Op: op, Units: int64(len(fx.Build.Reconstructed.Ops))}, nil
}

// setupTraceHash measures trace.HashWorkload, the fingerprint every
// checkpointed or resumed replay takes, over the fixture's
// reconstructed stream. Its allocations are the hash and the write
// buffer, a fixed two per call whatever the stream's length, since the
// codec encodes every op straight into the buffer; the budget of 0.01
// allocs per op fails as soon as any op allocates.
func setupTraceHash(fx *Fixture) (*Instance, error) {
	wl := fx.Build.Reconstructed
	op := func() error {
		trace.HashWorkload(wl)
		return nil
	}
	return &Instance{Op: op, Units: int64(len(wl.Ops))}, nil
}

// setupSortOps measures the workload build's per-day sort: one
// trace.OpSorter puts each day of the fixture's reconstructed stream
// back in stream order, from a copy whose days were shuffled once in
// set-up. After its first call the sorter's buffers fit the busiest
// day, so the row is gated at zero allocations.
func setupSortOps(fx *Fixture) (*Instance, error) {
	ops := fx.Build.Reconstructed.Ops
	shuffled := slices.Clone(ops)
	rng := rand.New(rand.NewSource(fx.Seed))
	var ends []int // where each day's ops end
	for start := 0; start < len(ops); {
		end := start + 1
		for end < len(ops) && ops[end].Day == ops[start].Day {
			end++
		}
		day := shuffled[start:end]
		rng.Shuffle(len(day), func(i, j int) { day[i], day[j] = day[j], day[i] })
		ends = append(ends, end)
		start = end
	}
	work := make([]trace.Op, len(ops))
	var s trace.OpSorter
	op := func() error {
		copy(work, shuffled)
		start := 0
		for _, end := range ends {
			s.Sort(work[start:end])
			start = end
		}
		return nil
	}
	if op(); !slices.Equal(work, ops) {
		return nil, fmt.Errorf("trace.sortops: the sorted days differ from the stream")
	}
	return &Instance{Op: op, Units: int64(len(ops))}, nil
}

// setupSeqSweep measures the Figure 4 sequential create/write + read
// sweep on the aged realloc image. The byte total driving the MB/s
// metric comes from the sweep's own aggregated disk accounting.
func setupSeqSweep(fx *Fixture) (*Instance, error) {
	day := fx.Cfg.WorkloadCfg.Days
	rs, err := bench.SequentialSweep(fx.AgedRealloc.Fs, fx.Cfg.DiskParams,
		fx.Cfg.BenchSizes, fx.Cfg.BenchTotal, day)
	if err != nil {
		return nil, err
	}
	st := experiments.AggregateSeqStats(rs)
	bytesMoved := (st.SectorsRead + st.SectorsWritten) * int64(fx.Cfg.DiskParams.Geom.SectorSize)
	op := func() error {
		_, err := bench.SequentialSweep(fx.AgedRealloc.Fs, fx.Cfg.DiskParams,
			fx.Cfg.BenchSizes, fx.Cfg.BenchTotal, day)
		return err
	}
	inst := &Instance{Op: op, Units: int64(len(fx.Cfg.BenchSizes))}
	inst.Metrics = func(medianSec float64) map[string]float64 {
		if medianSec <= 0 {
			return nil
		}
		return map[string]float64{"mb_per_s": float64(bytesMoved) / 1e6 / medianSec}
	}
	return inst, nil
}

// setupHotFiles measures the Table 2 hot-file benchmark on both aged
// images.
func setupHotFiles(fx *Fixture) (*Instance, error) {
	from := fx.Cfg.WorkloadCfg.Days - fx.Cfg.HotWindow
	op := func() error {
		if _, err := bench.HotFiles(fx.AgedFFS.Fs, fx.Cfg.DiskParams, from); err != nil {
			return err
		}
		_, err := bench.HotFiles(fx.AgedRealloc.Fs, fx.Cfg.DiskParams, from)
		return err
	}
	return &Instance{Op: op, Units: 2}, nil
}
