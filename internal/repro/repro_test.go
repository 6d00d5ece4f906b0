package repro

import (
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
		{"only tournament with policies", Options{Only: "tournament", Policies: "ffs"}, []string{"tournament"}},
		{"only tournament + busstudy", Options{Only: "tournament", BusStudy: true}, withSuite("-busstudy", "tournament")},
		{"only tournament + svg", Options{Only: "tournament", SVGDir: "d"}, withSuite("tournament", "-svg")},
		{"only tournament + ablations", Options{Only: "tournament", Ablations: true}, []string{"-ablations", "tournament"}},
		{"only tournament + profiles", Options{Only: "tournament", Profiles: true}, []string{"tournament", "-profiles"}},
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
