package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"ffsage/internal/aging"
	"ffsage/internal/bench"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/policy"
	"ffsage/internal/stats"
)

// The tournament driver generalizes the paper's two-way comparison to
// N policies: each contender ages one cached image, is scored for
// layout, and runs the sequential and hot-file benchmarks; the entries
// render as one comparative report.

// TournamentEntry is one policy's tournament outcome.
type TournamentEntry struct {
	Name string
	// LayoutByDay and UtilByDay are the aging trajectories.
	LayoutByDay stats.Series
	UtilByDay   stats.Series
	// Seeks counts intra-file disk seeks on the aged image.
	Seeks int
	// Stats is the aged image's allocator accounting.
	Stats ffs.AllocStats
	// Seq is the Figure 4-style sequential sweep on the aged image;
	// Hot the Table 2-style hot-file benchmark.
	Seq []bench.SeqResult
	Hot bench.HotResult
}

// RegisteredPolicies instantiates the named policies from the
// registry, preserving order. It is the lookup cmd/repro and the
// benchmark use, so both report unknown names with the registered list.
func RegisteredPolicies(names ...string) ([]ffs.Policy, error) {
	pols := make([]ffs.Policy, len(names))
	for i, name := range names {
		p, err := policy.New(name)
		if err != nil {
			return nil, err
		}
		pols[i] = p
	}
	return pols, nil
}

// Tournament ages one image per policy, scores it, and benches it.
// Entries come back in the order the policies were given; policy names
// must be unique (they key checkpoint arms and obs scopes). Everything
// reported is a pure function of (cfg, policy), so the report built
// from the entries is byte-identical for any worker count and across
// crash/resume.
func Tournament(cfg Config, policies ...ffs.Policy) ([]TournamentEntry, error) {
	if len(policies) == 0 {
		return nil, fmt.Errorf("experiments: tournament needs at least one policy")
	}
	seen := map[string]bool{}
	for _, p := range policies {
		if seen[p.Name()] {
			return nil, fmt.Errorf("experiments: tournament given policy %q twice", p.Name())
		}
		seen[p.Name()] = true
	}
	if err := cfg.Recovery.prepare(); err != nil {
		return nil, err
	}
	e, ref := reconstructed(cfg.WorkloadCfg, cfg.NFSCfg)
	days := cfg.WorkloadCfg.Days
	entries := make([]TournamentEntry, len(policies))
	arms := make([]arm, len(policies))
	for i, pol := range policies {
		slug := policy.Slug(pol.Name())
		arms[i] = arm{
			label: "tournament " + slug, slug: "tournament-" + slug, scope: "tournament." + slug,
			params: cfg.FsParams, policy: pol, wl: ref,
			then: func(res *aging.Result) error {
				seq, err := bench.SequentialSweep(res.Fs, cfg.DiskParams, cfg.BenchSizes, cfg.BenchTotal, days)
				if err != nil {
					return fmt.Errorf("sweep on %s image: %w", pol.Name(), err)
				}
				hot, err := bench.HotFiles(res.Fs, cfg.DiskParams, days-cfg.HotWindow)
				if err != nil {
					return fmt.Errorf("hot files on %s image: %w", pol.Name(), err)
				}
				entries[i] = TournamentEntry{
					Name:        pol.Name(),
					LayoutByDay: res.LayoutByDay,
					UtilByDay:   res.UtilByDay,
					Seeks:       layout.IntraFileSeeks(layout.AllFiles(res.Fs), cfg.FsParams.FragsPerBlock()),
					Stats:       res.Fs.Stats,
					Seq:         seq,
					Hot:         hot,
				}
				return nil
			},
		}
	}
	if _, err := ageArms(cfg, arms); err != nil {
		return nil, err
	}
	if _, err := e.wait(); err != nil {
		return nil, err
	}
	return entries, nil
}

// benchNearest returns the sweep point whose file size is closest to
// want (ties to the smaller size).
func benchNearest(seq []bench.SeqResult, want int64) bench.SeqResult {
	best := bench.SeqResult{}
	for _, r := range seq {
		if best.FileSize == 0 ||
			abs64(r.FileSize-want) < abs64(best.FileSize-want) ||
			(abs64(r.FileSize-want) == abs64(best.FileSize-want) && r.FileSize < best.FileSize) {
			best = r
		}
	}
	return best
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// summaryRow renders the entry's line of the comparative table.
func (e *TournamentEntry) summaryRow() string {
	b96 := benchNearest(e.Seq, 96<<10)
	return fmt.Sprintf("  %-14s %8.3f %8.3f %8d %8d %6.1f%% %8.2f %8.2f %8.2f",
		e.Name,
		firstOr(e.LayoutByDay, math.NaN()), e.LayoutByDay.FinalOr(math.NaN()),
		e.Seeks, e.Stats.ClusterMoves,
		100*e.UtilByDay.FinalOr(math.NaN()),
		b96.ReadBps/1e6, e.Hot.ReadBps/1e6, e.Hot.WriteBps/1e6)
}

// firstOr returns the first day's value, or def for an empty series.
func firstOr(s stats.Series, def float64) float64 {
	if len(s) == 0 {
		return def
	}
	return s.At(s[0].Day)
}

// section renders the entry's per-policy detail: the layout/utilization
// trajectory at ~12 sample days, the sequential sweep, the hot-file
// line, and the allocator accounting.
func (e *TournamentEntry) section(days int) []string {
	lines := []string{
		"",
		"## " + e.Name,
		"  layout trajectory:",
		fmt.Sprintf("  %4s  %8s %7s", "day", "score", "util"),
	}
	step := days / 12
	if step < 1 {
		step = 1
	}
	for d := 0; d < days; d += step {
		lines = append(lines, fmt.Sprintf("  %4d  %8.3f %6.1f%%",
			d+1, e.LayoutByDay.AtOr(d, math.NaN()), 100*e.UtilByDay.AtOr(d, math.NaN())))
	}
	lines = append(lines, fmt.Sprintf("  %4d  %8.3f %6.1f%%",
		days, e.LayoutByDay.FinalOr(math.NaN()), 100*e.UtilByDay.FinalOr(math.NaN())))
	lines = append(lines, "  sequential sweep:",
		fmt.Sprintf("  %9s  %10s %10s %8s", "size", "write", "read", "layout"))
	for _, r := range e.Seq {
		lines = append(lines, fmt.Sprintf("  %8dK  %5.2f MB/s %5.2f MB/s %8.3f",
			r.FileSize>>10, r.WriteBps/1e6, r.ReadBps/1e6, r.LayoutScore))
	}
	lines = append(lines, fmt.Sprintf(
		"  hot files: %d files (%.1f%% of files, %.1f%% of bytes), read %.2f MB/s, write %.2f MB/s, layout %.3f",
		e.Hot.NFiles, 100*e.Hot.FracFiles, 100*e.Hot.FracBytes,
		e.Hot.ReadBps/1e6, e.Hot.WriteBps/1e6, e.Hot.LayoutScore))
	lines = append(lines, fmt.Sprintf(
		"  allocator: %d blocks, %d cluster moves / %d attempts, %d section switches, %d cg fallbacks",
		e.Stats.BlocksAllocated, e.Stats.ClusterMoves, e.Stats.ClusterAttempts,
		e.Stats.SectionSwitches, e.Stats.CgFallbacks))
	return lines
}

// WriteTournamentReport renders the comparative report: a header
// naming the field, one summary row per entry under the table header,
// then each entry's detail section, all in the order given.
func WriteTournamentReport(w io.Writer, scale string, seed int64, days int, entries []TournamentEntry) error {
	names := make([]string, len(entries))
	for i := range entries {
		names[i] = entries[i].Name
	}
	lines := []string{
		fmt.Sprintf("policy tournament: %d policies, seed %d, %s, %d days aged", len(entries), seed, scale, days),
		"policies: " + strings.Join(names, ", "),
		"",
		fmt.Sprintf("  %-14s %8s %8s %8s %8s %7s %8s %8s %8s",
			"policy", "day1", "final", "seeks", "moves", "util", "96K rd", "hot rd", "hot wr"),
	}
	for i := range entries {
		lines = append(lines, entries[i].summaryRow())
	}
	for i := range entries {
		lines = append(lines, entries[i].section(days)...)
	}
	_, err := io.WriteString(w, strings.Join(lines, "\n")+"\n")
	return err
}
