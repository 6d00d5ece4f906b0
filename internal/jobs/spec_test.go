package jobs

import (
	"strings"
	"testing"
)

// TestSpecNormalize pins Normalize's defaults and bounds, including
// that an unset checkpoint_days stays 0 (no periodic checkpoints):
// under omitempty, 0 is indistinguishable from unset, so it cannot be
// given a non-zero default.
func TestSpecNormalize(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      Spec
		want    Spec
		wantErr string
	}{
		{name: "defaults", in: Spec{Days: 4, Seed: 1},
			want: Spec{Policy: "realloc", Days: 4, Seed: 1, NumCg: 8, FsBytes: 64 << 20,
				ChurnBytesPerDay: 12 << 20, ShortPairsPerDay: 60, LongMaxBytes: 4 << 20, MaxAttempts: 3}},
		{name: "checkpoint_days kept", in: Spec{Days: 4, CheckpointDays: 5},
			want: Spec{Policy: "realloc", Days: 4, NumCg: 8, FsBytes: 64 << 20, CheckpointDays: 5,
				ChurnBytesPerDay: 12 << 20, ShortPairsPerDay: 60, LongMaxBytes: 4 << 20, MaxAttempts: 3}},
		{name: "negative checkpoint_days", in: Spec{Days: 4, CheckpointDays: -1}, wantErr: "checkpoint_days"},
		{name: "unknown policy", in: Spec{Days: 4, Policy: "nope"}, wantErr: "unknown policy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := tc.in
			err := sp.Normalize()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Normalize() error %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if sp != tc.want {
				t.Errorf("Normalize() = %+v, want %+v", sp, tc.want)
			}
		})
	}
}
