package ffs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// appendPerBlock is Append as it was before full blocks were claimed a
// run at a time: one allocBlocksMech call per block, with a flush
// check after each. It is kept as the differential oracle for the run
// claim.
func appendPerBlock(fs *FileSystem, f *File, n int64, day int) (err error) {
	defer recoverCorruption(&err)
	f.ModDay = day
	if n == 0 {
		return nil
	}
	bs := int64(fs.P.BlockSize)
	fpb := fs.fpb
	bytesLeft := n
	appended := int64(0)

	runStart := -1
	flush := func(endLbn int) {
		if runStart >= 0 && endLbn > runStart {
			fs.policy.FlushCluster(fs, f, runStart, endLbn)
		}
		runStart = -1
	}
	fail := func(err error) error {
		flush(len(f.Blocks))
		f.Size += appended
		fs.Stats.BytesWritten += appended
		fs.relayout(f)
		return err
	}
	if len(f.Blocks) > 0 {
		capacity := int64(f.BlocksOnDisk(fpb)) * int64(fs.P.FragSize)
		if slack := capacity - f.Size; slack > 0 {
			take := min(slack, bytesLeft)
			bytesLeft -= take
			appended += take
		}
	}
	if bytesLeft > 0 && len(f.Blocks) > 0 && f.TailFrags < fpb {
		lastIdx := len(f.Blocks) - 1
		used := int64(f.TailFrags) * int64(fs.P.FragSize)
		target := min(used+bytesLeft, bs)
		if targetFrags := fs.fragsForBytes(target); targetFrags > f.TailFrags {
			if err := fs.growTail(f, targetFrags); err != nil {
				return fail(err)
			}
			if f.TailFrags == fpb {
				runStart = lastIdx
			}
		}
		bytesLeft -= target - used
		appended += target - used
	}
	for bytesLeft > 0 {
		lbn := len(f.Blocks)
		if bytesLeft < bs && lbn < NDirect {
			if nf := fs.fragsForBytes(bytesLeft); nf < fpb {
				flush(lbn)
				cgIdx, pref := fs.blkpref(f, lbn)
				addr, err := fs.allocFragsMech(cgIdx, pref, nf)
				if err != nil {
					return fail(err)
				}
				f.Blocks = append(f.Blocks, addr)
				f.TailFrags = nf
				appended += bytesLeft
				bytesLeft = 0
				break
			}
		}
		if fs.isSectionStart(lbn) {
			flush(lbn)
			if err := fs.enterSection(f, lbn); err != nil {
				return fail(err)
			}
		}
		cgIdx, pref := fs.blkpref(f, lbn)
		addr, _, err := fs.allocBlocksMech(cgIdx, pref, 1)
		if err != nil {
			return fail(err)
		}
		f.Blocks = append(f.Blocks, addr)
		f.TailFrags = fpb
		if runStart < 0 {
			runStart = lbn
		}
		if lbn+1-runStart == fs.P.MaxContig {
			flush(lbn + 1)
		}
		take := min(bs, bytesLeft)
		appended += take
		bytesLeft -= take
	}
	flush(len(f.Blocks))
	f.Size += appended
	fs.Stats.BytesWritten += appended
	fs.relayout(f)
	return nil
}

// flushLog is a test policy that records every cluster handed to it.
// With move set it is realloc-like: it moves each discontiguous cluster
// with TryReallocRun, so the flush points decide where later blocks go.
type flushLog struct {
	calls *[][3]int
	move  bool
}

func (flushLog) Name() string { return "flushlog" }

func (p flushLog) FlushCluster(fs *FileSystem, f *File, start, end int) {
	*p.calls = append(*p.calls, [3]int{f.Ino, start, end})
	if p.move && end-start <= fs.P.MaxContig && !f.RunIsContiguous(start, end, fs.fpb) {
		pref, cg := fs.ReallocPref(f, start)
		fs.TryReallocRun(f, start, end, cg, pref)
	}
}

// everyNth fails every nth allocation the allocator announces.
type everyNth struct{ n, calls int }

var errInjected = errors.New("injected fault")

func (h *everyNth) BeforeAlloc(int) error {
	h.calls++
	if h.calls%h.n == 0 {
		return errInjected
	}
	return nil
}

// runClaimCases counts the situations the run-claim differential must
// reach, as seen by the run-claiming arm. groupEnd and reserveMidRun
// read the final block map, so they count only when the policy moves
// no blocks.
type runClaimCases struct {
	groupEnd, reserveMidRun, flushes, sectionDirect, sectionMaxBpg, faults int
}

// runClaimStream drives a seeded stream of creates, appends, truncates
// and deletes through a fresh file system, growing files with app. The
// stream fills the file system until the reserve runs out, then keeps
// churning. It returns the file system, the flush log and the cases
// reached.
func runClaimStream(t *testing.T, p Params, seed int64, move bool, faultEvery int, app func(*FileSystem, *File, int64, int) error) (*FileSystem, [][3]int, runClaimCases) {
	t.Helper()
	var calls [][3]int
	fs, err := NewFileSystem(p, flushLog{&calls, move})
	if err != nil {
		t.Fatal(err)
	}
	var dirs []*File
	for i := range 4 {
		d, err := fs.Mkdir(fs.Root(), fmt.Sprintf("d%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, d)
	}
	var hook *everyNth
	if faultEvery > 0 {
		hook = &everyNth{n: faultEvery}
		fs.FaultHook = hook
	}
	var cases runClaimCases
	fpb := Daddr(fs.fpb)
	bs := int64(p.BlockSize)
	// grow appends n bytes to f. A failed append leaves the file as
	// the failing block found it (an indirect block may precede no data
	// block), so grow deletes it, as CreateFile does, and reports false.
	grow := func(f *File, n int64, day int) bool {
		lo := len(f.Blocks)
		err := app(fs, f, n, day)
		if err != nil && !errors.Is(err, ErrNoSpace) && !errors.Is(err, errInjected) {
			t.Fatalf("seed %d: append: %v", seed, err)
		}
		hi := len(f.Blocks)
		if f.TailFrags < fs.fpb {
			hi-- // the fragment tail is not part of any run
		}
		for i := lo + 1; i < hi; i++ {
			c := fs.CgOf(f.Blocks[i])
			if f.Blocks[i] == f.Blocks[i-1]+fpb && f.Blocks[i] == c.absFrag((c.nblk-1)*fs.fpb) {
				cases.groupEnd++
			}
		}
		if errors.Is(err, ErrNoSpace) && hi-lo >= 2 && f.Blocks[hi-1] == f.Blocks[hi-2]+fpb {
			cases.reserveMidRun++
		}
		if hi-lo > p.MaxContig {
			cases.flushes++
		}
		if lo < NDirect && hi > NDirect {
			cases.sectionDirect++
		}
		if next := (lo/p.MaxBpg + 1) * p.MaxBpg; next != NDirect && next < hi {
			cases.sectionMaxBpg++
		}
		if err != nil {
			if err := fs.Delete(f); err != nil {
				t.Fatalf("seed %d: delete after failed append: %v", seed, err)
			}
			return false
		}
		return true
	}
	// size draws a write length: fragment tails, a few blocks, or long
	// multi-section files.
	size := func(rng *rand.Rand) int64 {
		switch rng.Intn(4) {
		case 0:
			return 1 + rng.Int63n(bs)
		case 1:
			return 1 + rng.Int63n(12*bs)
		case 2:
			return 1 + rng.Int63n(40*bs)
		default:
			return bs * (1 + rng.Int63n(int64(3*p.MaxBpg)))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var live []*File
	for op := range 700 {
		day := op / 50
		switch r := rng.Intn(10); {
		case r < 4 || len(live) == 0:
			f, err := fs.CreateFile(dirs[rng.Intn(len(dirs))], fmt.Sprintf("f%d", op), 0, day)
			if err != nil {
				if errors.Is(err, ErrNoSpace) || errors.Is(err, errInjected) {
					continue
				}
				t.Fatalf("seed %d: create: %v", seed, err)
			}
			if grow(f, size(rng), day) {
				live = append(live, f)
			}
		case r < 7:
			k := rng.Intn(len(live))
			if !grow(live[k], size(rng), day) {
				live = slices.Delete(live, k, k+1)
			}
		case r < 8:
			f := live[rng.Intn(len(live))]
			if err := fs.Truncate(f, rng.Int63n(f.Size+1), day); err != nil {
				t.Fatalf("seed %d: truncate: %v", seed, err)
			}
		default:
			// Delete less often while the file system still has room,
			// so it fills up and the reserve runs out mid-run.
			if fs.freespace() > fs.P.TotalFrags()/4 && rng.Intn(2) == 0 {
				continue
			}
			k := rng.Intn(len(live))
			if err := fs.Delete(live[k]); err != nil {
				t.Fatalf("seed %d: delete: %v", seed, err)
			}
			live = slices.Delete(live, k, k+1)
		}
	}
	if hook != nil {
		cases.faults = hook.calls / faultEvery
	}
	if move {
		cases.groupEnd, cases.reserveMidRun = 0, 0
	}
	return fs, calls, cases
}

// sameFiles reports the first file whose shape or block map differs.
func sameFiles(got, want *FileSystem) error {
	if got.nfiles != want.nfiles {
		return fmt.Errorf("%d files, oracle %d", got.nfiles, want.nfiles)
	}
	for _, w := range want.Files() {
		ino := w.Ino
		g := got.FileByIno(ino)
		switch {
		case g == nil:
			return fmt.Errorf("ino %d missing", ino)
		case g.Size != w.Size || g.TailFrags != w.TailFrags:
			return fmt.Errorf("ino %d: size %d tail %d, oracle %d/%d", ino, g.Size, g.TailFrags, w.Size, w.TailFrags)
		case !slices.Equal(g.Blocks, w.Blocks):
			return fmt.Errorf("ino %d: blocks %v, oracle %v", ino, g.Blocks, w.Blocks)
		case !slices.Equal(g.Indirects, w.Indirects):
			return fmt.Errorf("ino %d: indirects %v, oracle %v", ino, g.Indirects, w.Indirects)
		}
	}
	return nil
}

func imageBytes(t *testing.T, fs *FileSystem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fs.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunClaimMatchesPerBlockLoop drives seeded Append, Truncate and
// Delete streams through Append's run claim and through the old
// per-block loop, at several geometries — the default, a small maxbpg
// (section starts every few blocks), maxcontig 1 and 3, a rotational
// delay, and a fault hook — with and without realloc-style moves. Both must produce the same block maps, flush
// calls, Stats, rotors, maps and image bytes, and stay Check-clean; and
// the streams must reach every boundary the run claim stops at.
func TestRunClaimMatchesPerBlockLoop(t *testing.T) {
	variants := []struct {
		name       string
		tweak      func(*Params)
		move       bool
		faultEvery int
	}{
		{"default", func(*Params) {}, true, 0},
		{"maxbpg20", func(p *Params) { p.MaxBpg = 20 }, false, 0},
		{"maxbpg20-move", func(p *Params) { p.MaxBpg = 20 }, true, 0},
		{"maxcontig3-maxbpg9", func(p *Params) { p.MaxContig, p.MaxBpg = 3, 9 }, true, 0},
		{"maxcontig1", func(p *Params) { p.MaxContig, p.MaxBpg = 1, 16 }, false, 0},
		{"rotdelay", func(p *Params) { p.RotDelay, p.MaxBpg = 4, 20 }, true, 0},
		{"faulthook", func(p *Params) { p.MaxBpg = 20 }, false, 97},
	}
	var total runClaimCases
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			p := smallParams()
			v.tweak(&p)
			for seed := int64(1); seed <= 4; seed++ {
				got, gotCalls, cases := runClaimStream(t, p, seed, v.move, v.faultEvery, (*FileSystem).Append)
				want, wantCalls, _ := runClaimStream(t, p, seed, v.move, v.faultEvery, appendPerBlock)
				if err := sameFiles(got, want); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !slices.Equal(gotCalls, wantCalls) {
					t.Fatalf("seed %d: %d flush calls, oracle %d", seed, len(gotCalls), len(wantCalls))
				}
				if got.Stats != want.Stats {
					t.Fatalf("seed %d: stats %+v, oracle %+v", seed, got.Stats, want.Stats)
				}
				if err := sameState(got, want); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !bytes.Equal(imageBytes(t, got), imageBytes(t, want)) {
					t.Fatalf("seed %d: image bytes differ", seed)
				}
				if err := got.Check(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				total.groupEnd += cases.groupEnd
				total.reserveMidRun += cases.reserveMidRun
				total.flushes += cases.flushes
				total.sectionDirect += cases.sectionDirect
				total.sectionMaxBpg += cases.sectionMaxBpg
				total.faults += cases.faults
			}
		})
	}
	t.Logf("cases reached: %+v", total)
	if total.groupEnd == 0 || total.reserveMidRun == 0 || total.flushes == 0 ||
		total.sectionDirect == 0 || total.sectionMaxBpg == 0 || total.faults == 0 {
		t.Fatalf("the streams missed a boundary: %+v", total)
	}
}
