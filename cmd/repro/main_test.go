package main

import (
	"io"
	"strings"
	"testing"

	"ffsage/internal/repro"
)

// TestOnlyRejectsUnknownKey: a mistyped -only key used to select
// nothing and still age every arm. It must fail up front and list the
// valid keys.
func TestOnlyRejectsUnknownKey(t *testing.T) {
	err := repro.Run(repro.Options{Seed: 1996, Quick: true, Only: "fig2,fgi2"}, io.Discard)
	if err == nil {
		t.Fatal("-only fgi2 accepted")
	}
	for _, k := range append([]string{"fgi2"}, repro.Keys()...) {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("error %q does not mention %q", err, k)
		}
	}
}
