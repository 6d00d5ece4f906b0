package workload

import (
	"fmt"
	"math"
	"math/rand"

	"ffsage/internal/trace"
)

// ReferenceResult is what the reference generator produces: the exact
// operation stream the source file system experienced (the "Real" line
// of Figure 1) and the nightly snapshots an observer recorded (the raw
// material for the reconstructed workload, Figure 1's "Simulated"
// line).
type ReferenceResult struct {
	GroundTruth *trace.Workload
	Snapshots   []trace.Snapshot
	// EndLiveFiles is the live file count after the last day.
	EndLiveFiles int
	// EndUsedBytes is the fragment-rounded bytes in use at the end.
	EndUsedBytes int64
}

type refFile struct {
	ino   int64
	dir   int
	size  int64
	ctime float64 // absolute seconds since day 0 start
	// heat is the file's long-term activity weight; a heavy-tailed
	// static draw, so rewrites concentrate on a stable working set
	// (the paper's hot set is ~10% of files holding ~19% of bytes).
	heat float64
	// victimW and rewriteW cache the size terms of pickVictim's and
	// pickRewriteTarget's weights, Pow(size+1024, 0.3) and
	// Pow(size+1024, 0.5): a file's size changes far less often than it
	// is sampled. setSize keeps them current.
	victimW, rewriteW float64
	// listPos is the file's position in reference.liveList while live.
	listPos int32
}

// setSize sets the file's size and the weight terms derived from it.
func (f *refFile) setSize(size int64) {
	f.size = size
	f.victimW = math.Pow(float64(size)+1024, 0.3)
	f.rewriteW = math.Pow(float64(size)+1024, 0.5)
}

type inoPool struct {
	cg       int
	ipg      int64
	nextSlot int64
	free     inoHeap // min-heap: FFS reuses the lowest free slot
}

func (p *inoPool) alloc() (int64, bool) {
	if len(p.free) > 0 {
		return p.free.pop(), true
	}
	if p.nextSlot >= p.ipg {
		return 0, false
	}
	ino := int64(p.cg)*p.ipg + p.nextSlot
	p.nextSlot++
	return ino, true
}

func (p *inoPool) release(ino int64) {
	p.free.push(ino)
}

// inoHeap is a min-heap of inode numbers. Hand-rolled rather than
// container/heap so pushes and pops do not box every value into an
// interface; pop order (always the minimum) is identical.
type inoHeap []int64

func (h *inoHeap) push(x int64) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *inoHeap) pop() int64 {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	for i := 0; ; {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if kid+1 < n && s[kid+1] < s[kid] {
			kid++
		}
		if s[i] <= s[kid] {
			break
		}
		s[i], s[kid] = s[kid], s[i]
		i = kid
	}
	return top
}

type reference struct {
	cfg Config
	rng *rand.Rand

	pools []*inoPool
	// files is an index-stable arena of file records; freeSlots holds
	// the indices of dead ones for reuse. byIno maps an inode number to
	// its arena index (-1 while dead) — inode numbers are dense, so a
	// flat slice replaces the old per-op map churn. liveList holds the
	// arena indices of live files for O(1) random victim selection.
	files     []refFile
	freeSlots []int32
	byIno     []int32
	liveList  []int32

	dirBase  []float64 // directory activity weights
	dirPhase []float64
	// dayWeight holds every directory's dirWeight for the day being
	// simulated and dayTotal their sum, computed once per day by
	// weighDirs instead of twice per pick.
	dayWeight []float64
	dayTotal  float64

	usedBytes   int64
	nextShortID int64

	ops    []trace.Op
	sorter trace.OpSorter // orders each day's ops
	snaps  []trace.Snapshot
	util   float64 // random-walk state after the ramp
}

// GenerateReference runs the reference activity simulation.
func GenerateReference(cfg Config) (*ReferenceResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := newReference(cfg)
	for day := 0; day < cfg.Days; day++ {
		r.advance(day)
	}
	return r.result(), nil
}

// advance simulates one day, puts the day's ops in stream order and
// takes the nightly snapshot. Every op simulateDay emits is on that
// day, so sorting each day's slice as it finishes keeps the whole
// stream sorted.
func (r *reference) advance(day int) {
	start := len(r.ops)
	r.simulateDay(day)
	r.sorter.Sort(r.ops[start:])
	r.snapshot(day)
}

// result wraps the generator's state after its last day.
func (r *reference) result() *ReferenceResult {
	return &ReferenceResult{
		GroundTruth:  &trace.Workload{Days: r.cfg.Days, Ops: r.ops},
		Snapshots:    r.snaps,
		EndLiveFiles: len(r.liveList),
		EndUsedBytes: r.usedBytes,
	}
}

// newReference returns the generator's day-0 state for a valid cfg.
func newReference(cfg Config) *reference {
	r := &reference{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		byIno:       make([]int32, cfg.NumCg*cfg.InodesPerGroup),
		nextShortID: -1,
		util:        cfg.CruiseUtil,
		dayWeight:   make([]float64, cfg.NumDirs),
	}
	for i := range r.byIno {
		r.byIno[i] = -1
	}
	for cg := 0; cg < cfg.NumCg; cg++ {
		r.pools = append(r.pools, &inoPool{cg: cg, ipg: int64(cfg.InodesPerGroup)})
	}
	for d := 0; d < cfg.NumDirs; d++ {
		r.dirBase = append(r.dirBase, 1/math.Pow(float64(d+1), 0.5))
		r.dirPhase = append(r.dirPhase, r.rng.Float64())
	}
	return r
}

func fragRound(n int64) int64 { return (n + 1023) &^ 1023 }

// dirWeight returns directory d's activity weight on the given day;
// project activity waxes and wanes over ~90-day cycles.
func (r *reference) dirWeight(d, day int) float64 {
	return r.dirBase[d] * (1 + 0.5*math.Sin(2*math.Pi*(float64(day)/90+r.dirPhase[d])))
}

// weighDirs computes the day's directory weights and their total, in
// directory order, so every pickDir of the day sees the same sums a
// per-pick recomputation would.
func (r *reference) weighDirs(day int) {
	r.dayTotal = 0
	for d := range r.dayWeight {
		r.dayWeight[d] = r.dirWeight(d, day)
		r.dayTotal += r.dayWeight[d]
	}
}

// pickDir draws a directory in proportion to the day's weights
// (weighDirs must have run for the day).
func (r *reference) pickDir() int {
	x := r.rng.Float64() * r.dayTotal
	for d, w := range r.dayWeight {
		x -= w
		if x <= 0 {
			return d
		}
	}
	return len(r.dayWeight) - 1
}

func (r *reference) dirCg(d int) int { return d % r.cfg.NumCg }

func (r *reference) allocIno(dir int) (int64, error) {
	start := r.dirCg(dir)
	for i := 0; i < r.cfg.NumCg; i++ {
		if ino, ok := r.pools[(start+i)%r.cfg.NumCg].alloc(); ok {
			return ino, nil
		}
	}
	return 0, fmt.Errorf("workload: all inode pools exhausted")
}

func (r *reference) inoCg(ino int64) int16 {
	return int16(int(ino/int64(r.cfg.InodesPerGroup)) % r.cfg.NumCg)
}

// addLive claims an arena slot for f, registers it live, and returns
// its arena index.
func (r *reference) addLive(f refFile) int32 {
	var idx int32
	if n := len(r.freeSlots); n > 0 {
		idx = r.freeSlots[n-1]
		r.freeSlots = r.freeSlots[:n-1]
		r.files[idx] = f
	} else {
		idx = int32(len(r.files))
		r.files = append(r.files, f)
	}
	r.files[idx].listPos = int32(len(r.liveList))
	r.byIno[f.ino] = idx
	r.liveList = append(r.liveList, idx)
	r.usedBytes += fragRound(f.size)
	return idx
}

func (r *reference) removeLive(ino int64) {
	idx := r.byIno[ino]
	f := &r.files[idx]
	last := int32(len(r.liveList) - 1)
	moved := r.liveList[last]
	r.liveList[f.listPos] = moved
	r.files[moved].listPos = f.listPos
	r.liveList = r.liveList[:last]
	r.byIno[ino] = -1
	r.freeSlots = append(r.freeSlots, idx)
	r.usedBytes -= fragRound(f.size)
	r.pools[r.inoCg(ino)].release(ino)
}

// createFile performs a long-lived create at the given time.
func (r *reference) createFile(day int, sec float64, dir int, size int64) error {
	ino, err := r.allocIno(dir)
	if err != nil {
		return err
	}
	f := refFile{
		ino: ino, dir: dir,
		ctime: float64(day)*86400 + sec,
		heat:  math.Exp(2 * r.rng.NormFloat64()),
	}
	f.setSize(size)
	r.addLive(f)
	r.ops = append(r.ops, trace.Op{
		Day: int32(day), Sec: sec, Kind: trace.OpCreate,
		ID: ino, Cg: r.inoCg(ino), Size: size,
	})
	return nil
}

// pickRewriteTarget selects a file to modify, weighting by the file's
// static heat and its size: the same working set of large, active
// files (simulation outputs, mailboxes, logs) absorbs most rewrites.
func (r *reference) pickRewriteTarget() *refFile {
	var best *refFile
	bestW := -1.0
	for k := 0; k < 12; k++ {
		f := &r.files[r.liveList[r.rng.Intn(len(r.liveList))]]
		w := f.heat * f.rewriteW
		if w > bestW {
			best, bestW = f, w
		}
	}
	return best
}

// pickVictim selects a file for deletion, biased toward larger and
// younger files (big experiment outputs and build trees come and go;
// old small files linger — [Satyanarayanan81]).
func (r *reference) pickVictim(day int) *refFile {
	if len(r.liveList) == 0 {
		return nil
	}
	var best *refFile
	bestW := -1.0
	now := float64(day) * 86400
	for k := 0; k < 6; k++ {
		f := &r.files[r.liveList[r.rng.Intn(len(r.liveList))]]
		ageDays := (now - f.ctime) / 86400
		if ageDays < 0.1 {
			ageDays = 0.1
		}
		w := f.victimW * math.Exp(-ageDays/8) * (0.5 + r.rng.Float64()) / (0.2 + f.heat)
		if w > bestW {
			best, bestW = f, w
		}
	}
	return best
}

func (r *reference) targetUtil(day int) float64 {
	c := r.cfg
	if day < c.RampDays {
		frac := float64(day) / float64(c.RampDays)
		return c.StartUtil + frac*(c.CruiseUtil-c.StartUtil)
	}
	// Mean-reverting wander around the cruise level, a slow seasonal
	// wave, and one mid-period spike toward the peak (the paper's
	// contour: "for most of the ten month period utilization was
	// greater than 70%, reaching a high of 90%").
	r.util += 0.15*(c.CruiseUtil-r.util) + r.rng.NormFloat64()*0.012
	u := r.util + 0.03*math.Sin(2*math.Pi*float64(day)/77)
	// A mid-period spike reaches the peak ("reaching a high of 90%"),
	// stressing the allocators while the system is fullest...
	spikeDay := float64(c.RampDays) + 0.55*float64(c.Days-c.RampDays)
	sd := (float64(day) - spikeDay) / 14
	u += (c.PeakUtil - c.CruiseUtil) * math.Exp(-sd*sd)
	// ...and the period ends moderately full (cruise plus ~8 points),
	// the state the paper's benchmarks measure.
	climbStart := 0.85 * float64(c.Days)
	if f := float64(day); f > climbStart {
		u += 0.10 * (f - climbStart) / (float64(c.Days) - climbStart)
	}
	lo, hi := c.CruiseUtil-0.05, c.PeakUtil
	if u < lo {
		u = lo
	}
	if u > hi {
		u = hi
	}
	return u
}

func (r *reference) simulateDay(day int) {
	c := r.cfg
	r.weighDirs(day)
	mult := lognormMul(r.rng, 0.5)
	if r.rng.Float64() < c.BurstProb {
		mult *= c.BurstMul
	}
	churn := c.ChurnBytesPerDay * mult
	if day == 0 {
		// The replay period starts at the year's low point; everything
		// already on the file system materializes as day-0 creates.
		churn += c.StartUtil * float64(c.FsBytes)
	}
	target := int64(r.targetUtil(day) * float64(c.FsBytes))
	delta := target - r.usedBytes

	// Rewrites: modify existing files in place, biased toward large
	// files (regenerated outputs, appended logs) so the byte budget is
	// spent on few operations, as on the source system.
	rewriteBytes := int64(c.RewriteFrac * churn)
	for written := int64(0); written < rewriteBytes && len(r.liveList) > 0; {
		f := r.pickRewriteTarget()
		newSize := int64(float64(f.size) * (0.7 + 0.6*r.rng.Float64()))
		if newSize < 1 {
			newSize = 1
		}
		sec := r.secAfter(day, f.ctime)
		r.usedBytes += fragRound(newSize) - fragRound(f.size)
		f.setSize(newSize)
		f.ctime = float64(day)*86400 + sec
		r.ops = append(r.ops, trace.Op{
			Day: int32(day), Sec: sec, Kind: trace.OpRewrite,
			ID: f.ino, Cg: r.inoCg(f.ino), Size: newSize,
		})
		written += newSize
	}

	createBudget := int64(churn * (1 - c.RewriteFrac))
	deleteBudget := createBudget
	if delta > 0 {
		createBudget += delta
	} else {
		deleteBudget += -delta
	}

	for written := int64(0); written < createBudget; {
		size := c.LongSize.Sample(r.rng)
		if err := r.createFile(day, workdaySec(r.rng), r.pickDir(), size); err != nil {
			break
		}
		written += size
	}
	// Deletes are driven by two pressures: the byte budget (big, young
	// files go first) and the population target (the live-file count
	// tracks utilization; without this, small files would accumulate
	// without bound).
	popTarget := int(float64(target) / c.MeanLiveBytes)
	freed, deleted := int64(0), 0
	for len(r.liveList) > 40 {
		needBytes := freed < deleteBudget
		needCount := len(r.liveList) > popTarget
		if !needBytes && !needCount || deleted > 20000 {
			break
		}
		var f *refFile
		if needBytes {
			f = r.pickVictim(day)
		} else {
			// Population trimming removes small files so the byte
			// controller is barely disturbed.
			for k := 0; k < 3; k++ {
				cand := &r.files[r.liveList[r.rng.Intn(len(r.liveList))]]
				if f == nil || cand.size < f.size {
					f = cand
				}
			}
		}
		if f == nil {
			break
		}
		freed += f.size
		deleted++
		sec := r.secAfter(day, f.ctime)
		r.removeLive(f.ino)
		r.ops = append(r.ops, trace.Op{
			Day: int32(day), Sec: sec, Kind: trace.OpDelete,
			ID: f.ino, Cg: r.inoCg(f.ino),
		})
	}

	// Short-lived files: created and gone before the nightly snapshot.
	nShort := int(c.ShortPairsPerDay * math.Sqrt(mult) * (0.6 + 0.8*r.rng.Float64()))
	for i := 0; i < nShort; i++ {
		dir := r.pickDir()
		size := c.ShortSize.Sample(r.rng)
		start := workdaySec(r.rng)
		life := r.rng.ExpFloat64() * 2 * 3600
		end := start + life
		if end > 86399.9 {
			end = 86399.9
		}
		if end <= start {
			end = start + 0.1
		}
		id := r.nextShortID
		r.nextShortID--
		cg := int16(r.dirCg(dir))
		r.ops = append(r.ops,
			trace.Op{Day: int32(day), Sec: start, Kind: trace.OpCreate, ID: id, Cg: cg, Size: size, ShortLived: true},
			trace.Op{Day: int32(day), Sec: end, Kind: trace.OpDelete, ID: id, Cg: cg, ShortLived: true},
		)
	}
}

// secAfter draws a time of day that falls strictly after the given
// absolute ctime when that ctime lies within the same day, so an
// operation on a file created earlier today sorts after its creation.
func (r *reference) secAfter(day int, ctime float64) float64 {
	sec := workdaySec(r.rng)
	created := ctime - float64(day)*86400
	if created >= 0 && sec <= created {
		room := 86399.9 - created
		if room < 0 {
			room = 0
		}
		sec = created + 0.001 + room*r.rng.Float64()
	}
	return sec
}

// snapshot records the live files in inode order. byIno is indexed by
// inode number, so scanning it yields that order without a sort; each
// group's scan stops at the pool's high-water slot, past which no
// inode was ever allocated.
func (r *reference) snapshot(day int) {
	files := make([]trace.FileMeta, 0, len(r.liveList))
	for _, p := range r.pools {
		base := int64(p.cg) * p.ipg
		for _, idx := range r.byIno[base : base+p.nextSlot] {
			if idx >= 0 {
				f := &r.files[idx]
				files = append(files, trace.FileMeta{Ino: f.ino, Size: f.size, CTime: f.ctime})
			}
		}
	}
	r.snaps = append(r.snaps, trace.Snapshot{Day: day, Files: files})
}
