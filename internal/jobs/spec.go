// Package jobs is the aging daemon's job layer: it defines the aging
// experiment a client submits (Spec), executes jobs from a durable
// internal/queue on an internal/runner worker pool (Manager), and
// serves the HTTP JSON API (api.go). The layer owns all the policy the
// queue deliberately does not: per-job timeouts, bounded retries with
// seeded-deterministic backoff, dead-lettering with a typed cause,
// load shedding, and — the point of the design — crash recovery that
// resumes in-flight jobs from their latest aging checkpoint and
// produces results byte-identical to an uninterrupted run.
package jobs

import (
	"fmt"

	"ffsage/internal/faults"
	"ffsage/internal/ffs"
	"ffsage/internal/policy"
	"ffsage/internal/trace"
	"ffsage/internal/workload"
)

// Spec describes one aging experiment. Everything a run needs is
// derived deterministically from the spec — the workload from the seed,
// the file system from the geometry — which is what lets a restarted
// daemon rebuild the exact inputs of an interrupted job from the bytes
// in the queue and resume it against its checkpoint.
//
// Zero-valued knobs take the documented defaults (a small 64 MiB /
// 8-group configuration that ages in seconds); paper-scale runs set
// the geometry and churn explicitly.
type Spec struct {
	// ID names the job; the daemon assigns job-NNNNNN when empty.
	// Client-chosen IDs make submission idempotent: re-submitting an
	// existing ID is rejected with 409 rather than running twice.
	ID string `json:"id,omitempty"`
	// Policy is the allocation policy, resolved against the
	// internal/policy registry: "ffs", "ffs+realloc" (the default),
	// "ffs+extent", "ffs+firstfit", "ffs+bestfit", "ssd", ... The
	// legacy spellings "orig"/"original" and "realloc" still work.
	Policy string `json:"policy,omitempty"`
	// Days is the number of simulated days to age (required).
	Days int `json:"days"`
	// Seed drives the workload generator.
	Seed int64 `json:"seed"`

	// NumCg and FsBytes set the simulated file system geometry
	// (defaults 8 groups, 64 MiB).
	NumCg   int   `json:"num_cg,omitempty"`
	FsBytes int64 `json:"fs_bytes,omitempty"`
	// ChurnBytesPerDay, ShortPairsPerDay, and LongMaxBytes scale the
	// workload to the file system (defaults 12 MiB, 60 pairs, 4 MiB).
	ChurnBytesPerDay float64 `json:"churn_bytes_per_day,omitempty"`
	ShortPairsPerDay float64 `json:"short_pairs_per_day,omitempty"`
	LongMaxBytes     int64   `json:"long_max_bytes,omitempty"`

	// CheckpointDays checkpoints the replay every k completed days.
	// Unset (0) means no periodic checkpoints; a graceful drain still
	// writes a final one at the exact operation cursor.
	CheckpointDays int `json:"checkpoint_days,omitempty"`
	// Faults is an internal/faults plan injected into the first fresh
	// run only — resumed and retried runs never re-fire it, so a
	// crash-fault job converges instead of crash-looping.
	Faults string `json:"faults,omitempty"`
	// TimeoutSec bounds one attempt's wall-clock run time (0 = none).
	// A timed-out attempt checkpoints before it stops, so the retry
	// resumes instead of starting over.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// MaxAttempts bounds deliveries before the job is dead-lettered
	// (default 3).
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// Spec bounds: generous engineering limits, not physics. They keep one
// malformed submission from exhausting the daemon.
const (
	maxSpecID      = 64
	maxSpecDays    = 3650
	maxNumCg       = 256
	minFsBytes     = 8 << 20
	maxFsBytes     = 4 << 30
	maxAttemptsCap = 10
)

// Normalize validates sp and fills defaulted fields in place. The error
// is client-facing (it becomes the HTTP 400 body); fault-plan errors
// keep their position-annotated form.
func (sp *Spec) Normalize() error {
	if err := checkID(sp.ID); err != nil {
		return err
	}
	if sp.Policy == "" {
		sp.Policy = "realloc"
	}
	if _, err := sp.policy(); err != nil {
		return err
	}
	if sp.Days <= 0 || sp.Days > maxSpecDays {
		return fmt.Errorf("jobs: days %d outside [1,%d]", sp.Days, maxSpecDays)
	}
	if sp.NumCg == 0 {
		sp.NumCg = 8
	}
	if sp.NumCg < 1 || sp.NumCg > maxNumCg {
		return fmt.Errorf("jobs: num_cg %d outside [1,%d]", sp.NumCg, maxNumCg)
	}
	if sp.FsBytes == 0 {
		sp.FsBytes = 64 << 20
	}
	if sp.FsBytes < minFsBytes || sp.FsBytes > maxFsBytes {
		return fmt.Errorf("jobs: fs_bytes %d outside [%d,%d]", sp.FsBytes, int64(minFsBytes), int64(maxFsBytes))
	}
	if sp.ChurnBytesPerDay == 0 {
		sp.ChurnBytesPerDay = 12 << 20
	}
	if sp.ChurnBytesPerDay < 0 {
		return fmt.Errorf("jobs: churn_bytes_per_day %g negative", sp.ChurnBytesPerDay)
	}
	if sp.ShortPairsPerDay == 0 {
		sp.ShortPairsPerDay = 60
	}
	if sp.ShortPairsPerDay < 0 {
		return fmt.Errorf("jobs: short_pairs_per_day %g negative", sp.ShortPairsPerDay)
	}
	if sp.LongMaxBytes == 0 {
		sp.LongMaxBytes = 4 << 20
	}
	if sp.LongMaxBytes < 1024 {
		return fmt.Errorf("jobs: long_max_bytes %d below one fragment", sp.LongMaxBytes)
	}
	if sp.CheckpointDays < 0 {
		return fmt.Errorf("jobs: checkpoint_days %d negative", sp.CheckpointDays)
	}
	if sp.Faults != "" {
		if _, err := faults.Parse(sp.Faults); err != nil {
			return err
		}
	}
	if sp.TimeoutSec < 0 {
		return fmt.Errorf("jobs: timeout_sec %g negative", sp.TimeoutSec)
	}
	if sp.MaxAttempts == 0 {
		sp.MaxAttempts = 3
	}
	if sp.MaxAttempts < 1 || sp.MaxAttempts > maxAttemptsCap {
		return fmt.Errorf("jobs: max_attempts %d outside [1,%d]", sp.MaxAttempts, maxAttemptsCap)
	}
	return nil
}

// checkID rejects IDs that could escape the per-job state directory or
// render badly in logs and URLs.
func checkID(id string) error {
	if len(id) > maxSpecID {
		return fmt.Errorf("jobs: id longer than %d bytes", maxSpecID)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("jobs: id %q: character %q not in [A-Za-z0-9._-]", id, r)
		}
	}
	if id == "." || id == ".." {
		return fmt.Errorf("jobs: id %q is a path component", id)
	}
	return nil
}

// policy resolves the named allocation policy against the registry in
// internal/policy (accepting the legacy spellings this API took before
// the registry existed: "orig", "realloc", ...).
func (sp *Spec) policy() (ffs.Policy, error) {
	p, err := policy.Resolve(sp.Policy)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return p, nil
}

// params builds the simulated file system geometry.
func (sp *Spec) params() ffs.Params {
	p := ffs.PaperParams()
	p.SizeBytes = sp.FsBytes
	p.NumCg = sp.NumCg
	return p
}

// buildWorkload regenerates the job's workload from its seed. The
// generator is deterministic, so a restarted daemon rebuilds exactly
// the stream the checkpoint was taken under (the checkpoint's workload
// hash guards the pairing).
func (sp *Spec) buildWorkload() (*trace.Workload, error) {
	cfg := workload.DefaultConfig(sp.Seed)
	cfg.Days = sp.Days
	cfg.NumCg = sp.NumCg
	cfg.FsBytes = sp.FsBytes
	cfg.ChurnBytesPerDay = sp.ChurnBytesPerDay
	cfg.ShortPairsPerDay = sp.ShortPairsPerDay
	cfg.LongSize.MaxBytes = sp.LongMaxBytes
	res, err := workload.GenerateReference(cfg)
	if err != nil {
		return nil, fmt.Errorf("jobs: generating workload: %w", err)
	}
	return res.GroundTruth, nil
}
