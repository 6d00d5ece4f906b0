package repro

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestSelectExhibits pins which entries a command line runs, in which
// order, and whether it builds the paper Suite, without simulating.
// "workload" stands for the Suite and its Workload section.
func TestSelectExhibits(t *testing.T) {
	paper := []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "table2", "fig6"}
	withSuite := func(names ...string) []string { return append([]string{"workload"}, names...) }
	cases := []struct {
		name string
		o    Options
		want []string // nil: rejected
	}{
		{"default", Options{}, withSuite(paper...)},
		{"only subset in report order", Options{Only: "fig6, TABLE2,fig1"}, withSuite("fig1", "table2", "fig6")},
		{"only fig5 still builds the Suite", Options{Only: "fig5"}, withSuite("fig5")},
		{"policies after the paper", Options{Policies: "all"}, withSuite(append(paper, "tournament")...)},
		{"everything", Options{Ablations: true, Profiles: true, BusStudy: true, Policies: "all", SVGDir: "d"},
			withSuite(append(paper, "-ablations", "-busstudy", "tournament", "-profiles", "-svg")...)},
		{"only tournament", Options{Only: "tournament"}, []string{"tournament"}},
		{"only tournament with fragments", Options{Only: "tournament", FragDir: "fr"}, []string{"tournament"}},
		{"policies with fragments", Options{Only: "tournament", Policies: "ffs", FragDir: "fr"}, []string{"tournament"}},
		{"only tournament + busstudy", Options{Only: "tournament", BusStudy: true}, withSuite("-busstudy", "tournament")},
		{"only tournament + svg", Options{Only: "tournament", SVGDir: "d"}, withSuite("tournament", "-svg")},
		{"only tournament + ablations", Options{Only: "tournament", Ablations: true}, []string{"-ablations", "tournament"}},
		{"assemble", Options{Assemble: "fr"}, []string{"tournament"}},
		{"assemble only tournament", Options{Assemble: "fr", Only: "tournament", Policies: "ffs"}, []string{"tournament"}},
		{"assemble + only fig2", Options{Assemble: "fr", Only: "fig2"}, nil},
		{"assemble + ablations", Options{Assemble: "fr", Ablations: true}, nil},
		{"assemble + profiles", Options{Assemble: "fr", Profiles: true}, nil},
		{"assemble + busstudy", Options{Assemble: "fr", BusStudy: true}, nil},
		{"assemble + svg", Options{Assemble: "fr", SVGDir: "d"}, nil},
		{"assemble + fragments", Options{Assemble: "fr", FragDir: "out"}, nil},
		{"fragments without a tournament", Options{FragDir: "fr"}, nil},
		{"fragments with only fig1", Options{Only: "fig1", FragDir: "fr"}, nil},
		{"fragments with a study", Options{Only: "tournament", FragDir: "fr", Profiles: true}, []string{"tournament", "-profiles"}},
		{"unknown key", Options{Only: "fig7"}, nil},
		{"a study is no -only key", Options{Only: "-svg"}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			xs, suite, err := selectExhibits(&c.o)
			if c.want == nil {
				if err == nil {
					t.Fatalf("accepted; selects %d exhibits", len(xs))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			if suite {
				got = append(got, "workload")
			}
			for _, x := range xs {
				got = append(got, x.name)
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("got %v, want %v", got, c.want)
			}
		})
	}
}

// TestKeysFollowReport: the -only keys are the keyed exhibits, in
// report order.
func TestKeysFollowReport(t *testing.T) {
	want := []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "table2", "fig6", "tournament"}
	if got := Keys(); !slices.Equal(got, want) {
		t.Errorf("Keys() = %v, want %v", got, want)
	}
}

// TestFragmentsWithoutTournamentWritesNothing: -fragments with no
// tournament used to exit 0 having written nothing. Run must reject it
// before it simulates or creates the directory.
func TestFragmentsWithoutTournamentWritesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fr")
	err := Run(Options{Seed: 1996, Quick: true, Only: "fig1", FragDir: dir}, io.Discard)
	if err == nil {
		t.Fatal("-only fig1 -fragments accepted")
	}
	if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
		t.Errorf("rejected run left %s behind (stat: %v)", dir, serr)
	}
}
