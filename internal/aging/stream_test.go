package aging

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"ffsage/internal/core"
	"ffsage/internal/trace"
)

// dayEnds returns, for each day d of wl, the number of ops on days up
// to d: the length of the stream's prefix once day d is sealed.
func dayEnds(wl *trace.Workload) []int {
	ends := make([]int, wl.Days)
	for d := range ends {
		ends[d], _ = slices.BinarySearchFunc(wl.Ops, d+1, func(op trace.Op, day int) int { return int(op.Day) - day })
	}
	return ends
}

// TestReplayStreamMatchesReplay replays a stream whose days are sealed
// one at a time, each only once the replay has closed the day before
// the last one sealed, so the replay waits on the build at every day.
// Its series, counters, allocator stats and image must equal a replay
// of the finished workload.
func TestReplayStreamMatchesReplay(t *testing.T) {
	wl := testWorkload(23, 10)
	want, err := Replay(testParams(), core.Realloc{}, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}

	src := trace.NewStream(wl.Days)
	closed := make(chan int, wl.Days)
	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := ReplayStream(testParams(), core.Realloc{}, src, Options{
			Progress: func(day int, _, _ float64) { closed <- day },
		})
		done <- out{res, err}
	}()
	ends := dayEnds(wl)
	src.Seal(wl.Ops[:ends[0]], 1)
	for d := 1; d < wl.Days; d++ {
		src.Seal(wl.Ops[:ends[d]], d+1)
		// Day d-1 closes when the replay meets day d's first op; hold
		// day d+1 back until it has.
		if got := <-closed; got != d-1 {
			t.Fatalf("replay closed day %d, want %d", got, d-1)
		}
	}
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	got := o.res
	if !reflect.DeepEqual(got.LayoutByDay, want.LayoutByDay) || !reflect.DeepEqual(got.UtilByDay, want.UtilByDay) {
		t.Error("streamed replay recorded different daily series")
	}
	if got.SkippedOps != want.SkippedOps || got.NoSpaceOps != want.NoSpaceOps || got.FaultedOps != want.FaultedOps {
		t.Errorf("op counters %d/%d/%d, want %d/%d/%d", got.SkippedOps, got.NoSpaceOps, got.FaultedOps,
			want.SkippedOps, want.NoSpaceOps, want.FaultedOps)
	}
	if got.Fs.Stats != want.Fs.Stats {
		t.Errorf("allocator stats %+v, want %+v", got.Fs.Stats, want.Fs.Stats)
	}
	if !slices.Equal(imageOf(t, got.Fs), imageOf(t, want.Fs)) {
		t.Error("streamed replay left a different image")
	}
}

// TestFailedStreamReleasesEveryReplay fails a stream partway through,
// while every replay waits for its next day: each must return the
// stream's error instead of blocking.
func TestFailedStreamReleasesEveryReplay(t *testing.T) {
	wl := testWorkload(29, 8)
	src := trace.NewStream(wl.Days)
	src.Seal(wl.Ops[:dayEnds(wl)[2]], 3)
	boom := errors.New("build failed on day 3")
	errs := make(chan error, 3)
	closed := make(chan struct{}, 3)
	for range 3 {
		go func() {
			_, err := ReplayStream(testParams(), core.Original{}, src, Options{
				Progress: func(day int, _, _ float64) {
					if day == 1 {
						closed <- struct{}{}
					}
				},
			})
			errs <- err
		}()
	}
	// A replay that closed day 1 has only day 2's ops left before it
	// waits for day 3; give all three time to get there.
	for range 3 {
		<-closed
	}
	time.Sleep(50 * time.Millisecond)
	src.Fail(boom)
	for range 3 {
		if err := <-errs; !errors.Is(err, boom) {
			t.Errorf("replay returned %v, want the stream's error", err)
		}
	}
}
