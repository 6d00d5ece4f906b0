package trace

import "sync"

// Stream is a workload published a day at a time while it is built.
// Days are sealed in order: once day d is sealed, no op on a day up to
// d changes and none is added, so a reader can replay the sealed days
// while the producer works on later ones. A finished Workload is a
// stream with every day sealed (Workload.Stream).
type Stream struct {
	days int
	mu   sync.Mutex
	cond sync.Cond
	// ops holds the sealed days' ops in stream order: a prefix of the
	// finished stream. Seal replaces it with a longer prefix, possibly
	// in a new backing array; a prefix once handed out never changes.
	ops    []Op
	sealed int
	err    error
}

// NewStream returns a stream of the given number of days with none
// sealed yet.
func NewStream(days int) *Stream {
	s := &Stream{days: days}
	s.cond.L = &s.mu
	return s
}

// Stream returns w as a stream with every day sealed.
func (w *Workload) Stream() *Stream {
	s := NewStream(w.Days)
	s.ops, s.sealed = w.Ops, w.Days
	return s
}

// Days returns the stream's length in days.
func (s *Stream) Days() int { return s.days }

// Seal publishes the stream's ops through its first `days` days, in
// stream order, and wakes every reader waiting for them. The producer
// calls it with an ever longer prefix of one stream.
func (s *Stream) Seal(ops []Op, days int) {
	s.mu.Lock()
	s.ops, s.sealed = ops, days
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Fail ends the stream with err: every waiting and later Wait that
// needs an unsealed day returns it.
func (s *Stream) Fail(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Wait blocks until at least min(days, Days()) days are sealed, or the
// stream failed, and returns the sealed ops and how many days they
// cover. Wait(0) never blocks.
func (s *Stream) Wait(days int) ([]Op, int, error) {
	days = min(days, s.days)
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.sealed < days && s.err == nil {
		s.cond.Wait()
	}
	if s.sealed < days {
		return nil, s.sealed, s.err
	}
	return s.ops, s.sealed, nil
}

// Whole waits for every day to be sealed and returns the finished
// workload.
func (s *Stream) Whole() (*Workload, error) {
	ops, _, err := s.Wait(s.days)
	if err != nil {
		return nil, err
	}
	return &Workload{Days: s.days, Ops: ops}, nil
}
