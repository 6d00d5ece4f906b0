package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ffsage/internal/aging"
	"ffsage/internal/ffs"
	"ffsage/internal/runner"
	"ffsage/internal/trace"
	"ffsage/internal/workload"
)

// The experiment pipelines repeatedly need the same two expensive
// artifacts: a generated workload (reference simulation + snapshot
// diff + NFS-trace merge) and an aged image (an ~800k-op replay).
// Several studies used to rebuild both per arm — the A2 quirk baseline,
// the A1 maxcontig=7 arm, the A4 chain-aware arm and the A5 cross-group
// arm all age the *same* (params, policy, workload) triple the Suite
// already aged. This process-wide cache builds each distinct artifact
// once, keyed by the full value of its inputs, and hands every consumer
// a private ffs.Clone() of the cached image — the clone is the
// concurrency boundary, so arms running on the parallel runner never
// share mutable state. Everything cached is a pure function of the
// key, which is what keeps -j N output identical to -j 1.

// buildEntry memoizes one workload construction. The first lookup
// starts the build on a goroutine of its own, which seals each day of
// both streams as it finishes it, so arms can replay the sealed days
// while later ones are still being built; done closes when the build
// returns.
type buildEntry struct {
	truth, recon *trace.Stream
	done         chan struct{}
	b            *workload.Build
	err          error
}

// agedEntry memoizes one aging replay.
type agedEntry struct {
	once sync.Once
	res  *aging.Result
	err  error
}

var (
	cacheMu    sync.Mutex
	buildCache = map[string]*buildEntry{}
	agedCache  = map[string]*agedEntry{}

	// Hit/miss tallies for the repro timing footer. Which lookups hit
	// depends on arm scheduling (and, across a resume, on what the first
	// process built), so these are process diagnostics — printed to
	// stdout, never written into a metrics snapshot.
	buildHits, buildMisses atomic.Int64
	agedHits, agedMisses   atomic.Int64
)

// CacheCounts reports the process-wide cache lookup tallies: workload
// builds and aged images, hits and misses. A singleflight loser that
// blocked on a build in flight still counts as a hit — the work was
// shared.
func CacheCounts() (buildHit, buildMiss, agedHit, agedMiss int64) {
	return buildHits.Load(), buildMisses.Load(), agedHits.Load(), agedMisses.Load()
}

// workloadKey identifies a workload build by the full value of its
// configurations (both are flat structs of scalars).
func workloadKey(wc workload.Config, nc workload.NFSTraceConfig) string {
	return fmt.Sprintf("%+v|%+v", wc, nc)
}

// agedKey identifies an aged image by the full value of its inputs.
// The policy is keyed by its type and field values (policies are flat
// structs of flags), never by its display name, so two policies share
// an image exactly when they make the same decisions.
func agedKey(params ffs.Params, policy ffs.Policy, wlKey string) string {
	return fmt.Sprintf("%+v|%T%+v|%s", params, policy, policy, wlKey)
}

// CachedBuild returns the (possibly shared) workload build for the
// given configurations, constructing it at most once per process.
// Builds are read-only to every consumer.
func CachedBuild(wc workload.Config, nc workload.NFSTraceConfig) (*workload.Build, error) {
	return startBuild(wc, nc).wait()
}

// startBuild returns the cache entry for a workload build without
// waiting for it: on a miss it starts the build. A build error fails
// both streams, releasing every arm waiting on a day. The build
// goroutine is not a runner job, so the runner's worker limit (-j)
// does not count it: at -j N, N arms replay beside one build.
func startBuild(wc workload.Config, nc workload.NFSTraceConfig) *buildEntry {
	key := workloadKey(wc, nc)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if e := buildCache[key]; e != nil {
		buildHits.Add(1)
		return e
	}
	buildMisses.Add(1)
	e := &buildEntry{truth: trace.NewStream(wc.Days), recon: trace.NewStream(wc.Days), done: make(chan struct{})}
	buildCache[key] = e
	go func() {
		defer close(e.done)
		// The build is a stage of its own in the timing footer; the
		// arms replaying its sealed days overlap it.
		label := fmt.Sprintf("workload build seed=%d days=%d", wc.Seed, wc.Days)
		e.err = runner.Time(label, func() (err error) {
			e.b, err = buildDays(wc, nc, func(truth, recon []trace.Op, days int) {
				e.truth.Seal(truth, days)
				e.recon.Seal(recon, days)
			})
			return err
		})
		if e.err != nil {
			e.truth.Fail(e.err)
			e.recon.Fail(e.err)
		}
	}()
	return e
}

// buildDays runs a cache-miss build; tests swap in one that fails
// partway.
var buildDays = workload.BuildDays

// wait blocks until the build finished and returns it.
func (e *buildEntry) wait() (*workload.Build, error) {
	<-e.done
	return e.b, e.err
}

// CachedAgedImage replays wl (identified by wlKey, normally
// workloadKey plus the stream name) on a fresh file system under
// (params, policy) at most once per process, and returns a Result
// whose Fs is a private deep copy of the cached image. The series and
// counters are shared snapshots — they never change once aged.
func CachedAgedImage(params ffs.Params, policy ffs.Policy, wl *trace.Workload, wlKey string, opts aging.Options) (*aging.Result, error) {
	return cachedAged(params, policy, wl.Stream(), wlKey, opts)
}

// cachedAged is CachedAgedImage over a stream whose days may still be
// in the making.
func cachedAged(params ffs.Params, policy ffs.Policy, src *trace.Stream, wlKey string, opts aging.Options) (*aging.Result, error) {
	if opts.Progress != nil || opts.CheckEvery != 0 {
		// Side effects must not be deduplicated away.
		return aging.ReplayStream(params, policy, src, opts)
	}
	key := agedKey(params, policy, wlKey)
	cacheMu.Lock()
	e := agedCache[key]
	if e == nil {
		e = &agedEntry{}
		agedCache[key] = e
		agedMisses.Add(1)
	} else {
		agedHits.Add(1)
	}
	cacheMu.Unlock()
	e.once.Do(func() { e.res, e.err = aging.ReplayStream(params, policy, src, opts) })
	if e.err != nil {
		return nil, e.err
	}
	out := *e.res
	out.Fs = e.res.Fs.Clone()
	return &out, nil
}

// ResetCaches drops every memoized build and image (tests that measure
// the cost of building them call this between iterations).
func ResetCaches() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	buildCache = map[string]*buildEntry{}
	agedCache = map[string]*agedEntry{}
	buildHits.Store(0)
	buildMisses.Store(0)
	agedHits.Store(0)
	agedMisses.Store(0)
}
