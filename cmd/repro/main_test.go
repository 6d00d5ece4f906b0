package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ffsage/internal/experiments"
)

// runQuiet calls run with stdout sent to /dev/null: run prints the
// report and the timing footer there; keep the test log readable.
func runQuiet(o options) error {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	stdout := os.Stdout
	os.Stdout = devnull
	err = run(o)
	os.Stdout = stdout
	devnull.Close()
	return err
}

// TestOnlyRejectsUnknownKey: a mistyped -only key used to select
// nothing and still age every arm. It must fail up front and list the
// valid keys.
func TestOnlyRejectsUnknownKey(t *testing.T) {
	err := runQuiet(options{seed: 1996, quick: true, only: "fig2,fgi2"})
	if err == nil {
		t.Fatal("-only fgi2 accepted")
	}
	for _, k := range append([]string{"fgi2"}, exhibitKeys...) {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("error %q does not mention %q", err, k)
		}
	}
}

// TestAssembleMatchesSingleProcess pins the tournament fan-in: one
// -fragments leg per policy, then -assemble, must write the same
// markdown report as a single-process -only tournament run.
func TestAssembleMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	frags := filepath.Join(dir, "frags")
	base := options{seed: 1996, quick: true, days: 8, only: "tournament"}
	for _, p := range []string{"ffs", "ssd"} {
		leg := base
		leg.policies, leg.fragDir = p, frags
		if err := runQuiet(leg); err != nil {
			t.Fatal(err)
		}
	}
	full := base
	full.policies, full.mdPath = "ffs,ssd", filepath.Join(dir, "full.md")
	fanin := options{seed: 1996, quick: true, days: 8, policies: "ffs,ssd",
		assemble: frags, mdPath: filepath.Join(dir, "assembled.md")}
	experiments.ResetCaches() // the single-process run ages afresh
	for _, o := range []options{full, fanin} {
		if err := runQuiet(o); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(full.mdPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fanin.mdPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("assembled report differs from the single-process run; first difference: %s", firstDiff(got, want))
	}
	if !bytes.Contains(want, []byte("policy tournament: 2 policies, seed 1996, quick scale, 8 days aged")) ||
		bytes.Contains(want, []byte("## Workload")) {
		t.Errorf("-only tournament report has the wrong sections:\n%s", want)
	}
}
