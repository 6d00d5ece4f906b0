package queue

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"ffsage/internal/trace"
)

// The WAL backend logs every queue transition as one CRC-checksummed
// frame (the internal/trace frame codec that also protects aging
// checkpoints) appended to a single file and fsynced before the
// operation is acknowledged. Reopening the file replays the log to
// rebuild the exact queue state; a tail torn by a crash — the only
// damage a single-writer append-only log can self-inflict — is detected
// by the frame checksum and truncated away, which discards at most the
// one operation that was never acknowledged to its caller.

var walMagic = [4]byte{'F', 'F', 'Q', '1'}

// walVersion is bumped whenever record encoding changes.
const walVersion = 1

// maxWALRecord bounds a single record's payload; specs are small JSON
// documents, so anything larger is corruption.
const maxWALRecord = 1 << 24

// walWhat names the artifact in CorruptError messages.
const walWhat = "queue WAL record"

// Record kinds, one per queue transition, plus the compaction snapshot.
const (
	walEnqueue = 'E'
	walDequeue = 'D'
	walAck     = 'A'
	walNack    = 'N'
	walBury    = 'B'
	walSnap    = 'S' // full-record snapshot written by compaction
)

// compactionSlack: a log holding more than this many records per live
// job (plus a flat grace) is rewritten on open. The threshold only has
// to keep the file from growing without bound; precision buys nothing.
const compactionSlack = 4

// RecoveryInfo describes what Open found in an existing log.
type RecoveryInfo struct {
	Records       int    // valid records replayed
	TruncatedTail bool   // a torn or corrupt tail was dropped
	TailError     string // what was wrong with the dropped tail
	Compacted     bool   // the log was rewritten as snapshots
}

// WAL is the durable queue backend. Construct with Open.
type WAL struct {
	mu     sync.Mutex
	mem    *Memory
	f      *os.File
	path   string
	broken error // first append/sync failure; the queue refuses further writes

	// Recovered reports what Open found; informational.
	Recovered RecoveryInfo
}

var _ Queue = (*WAL)(nil)

// Open loads (or creates) the write-ahead log at path and rebuilds the
// queue state it encodes. A torn tail is truncated away; damage earlier
// in the file surfaces as a *trace.CorruptError without any state
// applied past it — Open degrades to the longest consistent prefix and
// reports it, rather than guessing.
func Open(path string) (*WAL, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("queue: reading WAL: %w", err)
	}
	w := &WAL{mem: NewMemory(), path: path}

	// Replay the longest valid frame prefix.
	goodOff := 0
	rest := data
	//lint:ignore ffsvet/ctxloop bounded: consumes the file's remaining bytes; exits at EOF or the first bad frame
	for {
		payload, err := trace.ReadFrame(newSliceReader(&rest), walMagic, walVersion, maxWALRecord, walWhat)
		if err == io.EOF {
			break
		}
		if err != nil {
			// A torn or corrupt tail: keep the consistent prefix, drop
			// the rest. The dropped operation was never acknowledged.
			w.Recovered.TruncatedTail = true
			w.Recovered.TailError = err.Error()
			break
		}
		if err := w.apply(payload); err != nil {
			return nil, err
		}
		goodOff = len(data) - len(rest)
		w.Recovered.Records++
	}
	if w.Recovered.TruncatedTail {
		if err := trace.ReplaceFile(path, data[:goodOff]); err != nil {
			return nil, fmt.Errorf("queue: truncating torn WAL tail: %w", err)
		}
	}

	if w.Recovered.Records > compactionSlack*len(w.mem.List())+16 {
		if err := w.compact(); err != nil {
			return nil, err
		}
		w.Recovered.Compacted = true
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("queue: opening WAL for append: %w", err)
	}
	w.f = f
	return w, nil
}

// sliceReader reads from *rest, consuming it in place so the caller can
// measure how many bytes each frame took.
type sliceReader struct{ rest *[]byte }

func newSliceReader(rest *[]byte) sliceReader { return sliceReader{rest} }

func (s sliceReader) Read(p []byte) (int, error) {
	if len(*s.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, *s.rest)
	*s.rest = (*s.rest)[n:]
	return n, nil
}

// compact rewrites the log as one snapshot record per live job —
// pending jobs first in dispatch order (so FIFO order survives), then
// the rest sorted by ID — and atomically replaces the old file.
func (w *WAL) compact() error {
	var buf []byte
	seen := map[string]bool{}
	emit := func(r Record) error {
		payload := encodeSnap(r)
		var frame bytesWriter
		if err := trace.WriteFrame(&frame, walMagic, walVersion, payload); err != nil {
			return err
		}
		buf = append(buf, frame...)
		seen[r.ID] = true
		return nil
	}
	for _, id := range w.mem.PendingIDs() {
		if r, ok := w.mem.Get(id); ok {
			if err := emit(r); err != nil {
				return err
			}
		}
	}
	for _, r := range w.mem.List() {
		if !seen[r.ID] {
			if err := emit(r); err != nil {
				return err
			}
		}
	}
	if err := trace.ReplaceFile(w.path, buf); err != nil {
		return fmt.Errorf("queue: compacting WAL: %w", err)
	}
	return nil
}

// append logs one record payload durably: frame, write, fsync. A
// failure wedges the queue (broken) so state and log cannot diverge
// silently; the daemon surfaces that as a fatal degradation.
func (w *WAL) append(payload []byte) error {
	if w.broken != nil {
		return fmt.Errorf("queue: WAL previously failed: %w", w.broken)
	}
	var frame bytesWriter
	if err := trace.WriteFrame(&frame, walMagic, walVersion, payload); err != nil {
		w.broken = err
		return fmt.Errorf("queue: encoding WAL record: %w", err)
	}
	if _, err := w.f.Write(frame); err != nil {
		w.broken = err
		return fmt.Errorf("queue: appending WAL record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.broken = err
		return fmt.Errorf("queue: syncing WAL: %w", err)
	}
	return nil
}

// bytesWriter is an io.Writer that appends to itself.
type bytesWriter []byte

func (b *bytesWriter) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// Enqueue implements Queue: validate, log durably, then apply.
func (w *WAL) Enqueue(id string, spec []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if id == "" {
		return fmt.Errorf("%w: empty id", ErrState)
	}
	if _, ok := w.mem.Get(id); ok {
		return fmt.Errorf("%w: %q", ErrExists, id)
	}
	payload := appendString(appendString([]byte{walEnqueue}, id), string(spec))
	if err := w.append(payload); err != nil {
		return err
	}
	return w.mem.Enqueue(id, spec)
}

// Dequeue implements Queue.
func (w *WAL) Dequeue() (Record, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	id, ok := w.mem.peek()
	if !ok {
		return Record{}, false, nil
	}
	if err := w.append(appendString([]byte{walDequeue}, id)); err != nil {
		return Record{}, false, err
	}
	rec, ok, err := w.mem.Dequeue()
	if err == nil && (!ok || rec.ID != id) {
		err = fmt.Errorf("queue: dequeue raced its own log record (%q)", id)
	}
	return rec, ok, err
}

// transition logs and applies one Running → to move.
func (w *WAL) transition(kind byte, id, cause string, apply func() error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	r, ok := w.mem.Get(id)
	if !ok {
		return fmt.Errorf("%q: %w", id, ErrNotFound)
	}
	if r.State != Running {
		return fmt.Errorf("%q: %w: job is %s, not running", id, ErrState, r.State)
	}
	payload := appendString([]byte{kind}, id)
	if kind != walAck {
		payload = appendString(payload, cause)
	}
	if err := w.append(payload); err != nil {
		return err
	}
	return apply()
}

// Ack implements Queue.
func (w *WAL) Ack(id string) error {
	return w.transition(walAck, id, "", func() error { return w.mem.Ack(id) })
}

// Nack implements Queue.
func (w *WAL) Nack(id, cause string) error {
	return w.transition(walNack, id, cause, func() error { return w.mem.Nack(id, cause) })
}

// Bury implements Queue.
func (w *WAL) Bury(id, cause string) error {
	return w.transition(walBury, id, cause, func() error { return w.mem.Bury(id, cause) })
}

// Get implements Queue.
func (w *WAL) Get(id string) (Record, bool) { return w.mem.Get(id) }

// List implements Queue.
func (w *WAL) List() []Record { return w.mem.List() }

// PendingIDs implements Queue.
func (w *WAL) PendingIDs() []string { return w.mem.PendingIDs() }

// Depth implements Queue.
func (w *WAL) Depth() int { return w.mem.Depth() }

// Running implements Queue.
func (w *WAL) Running() []Record { return w.mem.Running() }

// Path returns the log file's path (for operational reporting — the
// daemon's /metrics gauges the file's size).
func (w *WAL) Path() string { return w.path }

// Err implements Queue: nil while the log accepts writes, the wedging
// append/sync failure once it stopped. A wedged WAL still serves reads,
// so the daemon can report itself unready while staying inspectable.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// Close implements Queue. It does not drain anything: a WAL closed with
// jobs in flight reopens into exactly that state, which is the point.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	w.broken = errors.New("queue: WAL closed")
	return err
}

// apply replays one logged record into the in-memory state. Failures
// mean the log is internally inconsistent, which reads as corruption.
func (w *WAL) apply(payload []byte) error {
	d := walDec{b: payload}
	kind, err := d.u8()
	if err != nil {
		return err
	}
	id, err := d.str()
	if err != nil {
		return err
	}
	switch kind {
	case walEnqueue:
		spec, err := d.str()
		if err != nil {
			return err
		}
		return w.applyErr(w.mem.Enqueue(id, []byte(spec)))
	case walDequeue:
		rec, ok, err := w.mem.Dequeue()
		if err == nil && (!ok || rec.ID != id) {
			err = fmt.Errorf("dequeue of %q does not match queue head", id)
		}
		return w.applyErr(err)
	case walAck:
		return w.applyErr(w.mem.Ack(id))
	case walNack:
		cause, err := d.str()
		if err != nil {
			return err
		}
		return w.applyErr(w.mem.Nack(id, cause))
	case walBury:
		cause, err := d.str()
		if err != nil {
			return err
		}
		return w.applyErr(w.mem.Bury(id, cause))
	case walSnap:
		rec, err := decodeSnapBody(id, &d)
		if err != nil {
			return err
		}
		return w.applyErr(w.mem.restore(rec))
	default:
		return &trace.CorruptError{What: walWhat, Msg: fmt.Sprintf("unknown record kind %q", kind)}
	}
}

func (w *WAL) applyErr(err error) error {
	if err == nil {
		return nil
	}
	return &trace.CorruptError{What: walWhat, Msg: "log replays to an inconsistent state", Err: err}
}

// encodeSnap encodes a full record as a compaction snapshot payload.
func encodeSnap(r Record) []byte {
	p := appendString([]byte{walSnap}, r.ID)
	p = append(p, byte(r.State))
	p = binary.AppendUvarint(p, uint64(r.Attempt))
	p = appendString(p, r.Cause)
	p = appendString(p, string(r.Spec))
	return p
}

// decodeSnapBody decodes the snapshot fields following the common id.
func decodeSnapBody(id string, d *walDec) (Record, error) {
	st, err := d.u8()
	if err != nil {
		return Record{}, err
	}
	if State(st) > Dead {
		return Record{}, &trace.CorruptError{What: walWhat, Msg: fmt.Sprintf("snapshot state %d out of range", st)}
	}
	attempt, err := d.uv()
	if err != nil {
		return Record{}, err
	}
	cause, err := d.str()
	if err != nil {
		return Record{}, err
	}
	spec, err := d.str()
	if err != nil {
		return Record{}, err
	}
	return Record{ID: id, Spec: []byte(spec), State: State(st), Attempt: int(attempt), Cause: cause}, nil
}

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// walDec decodes a record payload, returning typed corruption errors on
// any overrun so damaged records never panic the reader.
type walDec struct {
	b   []byte
	off int
}

func (d *walDec) fail(what string) error {
	return &trace.CorruptError{What: walWhat, Msg: fmt.Sprintf("truncated %s at offset %d", what, d.off), Err: io.ErrUnexpectedEOF}
}

func (d *walDec) u8() (byte, error) {
	if d.off >= len(d.b) {
		return 0, d.fail("byte")
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *walDec) uv() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, d.fail("varint")
	}
	d.off += n
	return v, nil
}

func (d *walDec) str() (string, error) {
	n, err := d.uv()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.b)-d.off) {
		return "", d.fail("string")
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}
