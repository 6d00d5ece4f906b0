package aging

import (
	"context"
	"errors"
	"testing"
	"time"

	"ffsage/internal/core"
	"ffsage/internal/trace"
)

// afterNPolls is a deterministic context: it reports cancellation after
// its Err method has been consulted n times. The replayer polls Err
// exactly once per operation (and once per trailing idle day), so the
// cancellation lands at a repeatable op boundary — which is what lets
// the test pin byte-identical resume behaviour rather than racing a
// timer.
type afterNPolls struct {
	n     int
	polls int
}

func (c *afterNPolls) Err() error {
	c.polls++
	if c.polls > c.n {
		return context.Canceled
	}
	return nil
}
func (c *afterNPolls) Done() <-chan struct{}             { return nil }
func (c *afterNPolls) Deadline() (time.Time, bool)       { return time.Time{}, false }
func (c *afterNPolls) Value(key interface{}) interface{} { return nil }

var _ context.Context = (*afterNPolls)(nil)

// TestCancelledReplayCheckpointsAndResumesByteIdentical is the graceful
// shutdown contract: cancelling a replay mid-run emits one final
// checkpoint at the exact operation cursor — including mid-day, and
// even before the first day has completed — and resuming from it yields
// daily series, counters, and a final file system byte-identical to an
// uninterrupted run.
func TestCancelledReplayCheckpointsAndResumesByteIdentical(t *testing.T) {
	wl := testWorkload(21, 10)
	ref, err := Replay(testParams(), core.Realloc{}, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 17, len(wl.Ops) / 3, len(wl.Ops) - 2} {
		var cps []*trace.Checkpoint
		res, err := Replay(testParams(), core.Realloc{}, wl, Options{
			Ctx:        &afterNPolls{n: n},
			Checkpoint: collectCheckpoints(t, &cps),
		})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("n=%d: replay ended with %v, want ErrInterrupted", n, err)
		}
		if res == nil {
			t.Fatalf("n=%d: no partial result", n)
		}
		if len(cps) != 1 {
			t.Fatalf("n=%d: %d checkpoints, want exactly the final one", n, len(cps))
		}
		cp := cps[0]
		if cp.NextOp != n {
			t.Fatalf("n=%d: checkpoint cursor at op %d", n, cp.NextOp)
		}

		resumed, err := ResumeReplay(core.Realloc{}, wl, cp, Options{})
		if err != nil {
			t.Fatalf("n=%d: resume: %v", n, err)
		}
		sameSeries(t, "layout", resumed.LayoutByDay, ref.LayoutByDay)
		sameSeries(t, "util", resumed.UtilByDay, ref.UtilByDay)
		if resumed.SkippedOps != ref.SkippedOps || resumed.NoSpaceOps != ref.NoSpaceOps || resumed.FaultedOps != ref.FaultedOps {
			t.Fatalf("n=%d: resumed counters %d/%d/%d, want %d/%d/%d",
				n, resumed.SkippedOps, resumed.NoSpaceOps, resumed.FaultedOps, ref.SkippedOps, ref.NoSpaceOps, ref.FaultedOps)
		}
		if got, want := resumed.Fs.LayoutScore(), ref.Fs.LayoutScore(); got != want {
			t.Fatalf("n=%d: resumed layout %v, want %v", n, got, want)
		}
		if got, want := resumed.Fs.FileCount(), ref.Fs.FileCount(); got != want {
			t.Fatalf("n=%d: resumed file count %d, want %d", n, got, want)
		}
	}
}

// TestCancelWithoutSinkStillStops: with no Checkpoint sink configured,
// cancellation still ends the replay with ErrInterrupted (and no
// checkpoint side effects to fail on).
func TestCancelWithoutSinkStillStops(t *testing.T) {
	wl := testWorkload(4, 6)
	_, err := Replay(testParams(), core.Original{}, wl, Options{Ctx: &afterNPolls{n: 25}})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
}

// TestUncancelledCtxIsFree: a live context does not perturb the run.
func TestUncancelledCtxIsFree(t *testing.T) {
	wl := testWorkload(5, 6)
	ref, err := Replay(testParams(), core.Original{}, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Replay(testParams(), core.Original{}, wl, Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	sameSeries(t, "layout", got.LayoutByDay, ref.LayoutByDay)
	sameSeries(t, "util", got.UtilByDay, ref.UtilByDay)
}
