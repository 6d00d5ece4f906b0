package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ffsage/internal/experiments"
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

// TestAssembleMatchesSingleProcess pins the tournament fan-in: one
// -fragments leg per policy, then -assemble, must write the same
// markdown report as a single-process -only tournament run.
func TestAssembleMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	frags := filepath.Join(dir, "frags")
	base := repro.Options{Seed: 1996, Quick: true, Days: 8, Only: "tournament"}
	for _, p := range []string{"ffs", "ssd"} {
		leg := base
		leg.Policies, leg.FragDir = p, frags
		if err := repro.Run(leg, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	full := base
	full.Policies, full.MDPath = "ffs,ssd", filepath.Join(dir, "full.md")
	fanin := repro.Options{Seed: 1996, Quick: true, Days: 8, Policies: "ffs,ssd",
		Assemble: frags, MDPath: filepath.Join(dir, "assembled.md")}
	experiments.ResetCaches() // the single-process run ages afresh
	for _, o := range []repro.Options{full, fanin} {
		if err := repro.Run(o, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(full.MDPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fanin.MDPath)
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
