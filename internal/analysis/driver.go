package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// Suite instantiates the full analyzer suite from the given configs:
// the per-package syntactic checkers first, then the whole-program
// reachability checkers.
func Suite(dr DetrandConfig, cc CheckedCorruptionConfig, np NopanicConfig, dm DirmapConfig,
	fa FsyncackConfig, aw AtomicwriteConfig, sp SnapshotpureConfig, cl CtxloopConfig) []*Analyzer {
	return []*Analyzer{
		Detrand(dr),
		Maporder(),
		CheckedCorruption(cc),
		Nopanic(np),
		Dirmap(dm),
		Fsyncack(fa),
		Atomicwrite(aw),
		Snapshotpure(sp),
		Ctxloop(cl),
	}
}

// DefaultSuite is the suite with the repository's sanctioned
// configuration — what CI enforces.
func DefaultSuite() []*Analyzer {
	return Suite(DefaultDetrandConfig(), DefaultCheckedCorruptionConfig(), DefaultNopanicConfig(), DefaultDirmapConfig(),
		DefaultFsyncackConfig(), DefaultAtomicwriteConfig(), DefaultSnapshotpureConfig(), DefaultCtxloopConfig())
}

// Main implements cmd/ffsvet: `ffsvet [flags] [patterns]` loads the
// matching packages with their test files via `go list -test -export`
// (see LoadPatterns) and runs the suite over one whole-program call
// graph. Returns the process exit code.
func Main(args []string) int {
	fs := flag.NewFlagSet("ffsvet", flag.ContinueOnError)
	dr := DefaultDetrandConfig()
	cc := DefaultCheckedCorruptionConfig()
	np := DefaultNopanicConfig()
	dm := DefaultDirmapConfig()
	fa := DefaultFsyncackConfig()
	aw := DefaultAtomicwriteConfig()
	sp := DefaultSnapshotpureConfig()
	cl := DefaultCtxloopConfig()
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	csv := func(p *[]string, name, usage string) {
		def := strings.Join(*p, ",")
		fs.Func(name, usage+" (comma-separated; default "+def+")", func(v string) error {
			*p = splitCSV(v)
			return nil
		})
	}
	csv(&dr.Packages, "detrand.pkgs", "packages where global rand and wall-clock reads are forbidden")
	csv(&dr.TimeOK, "detrand.timeok", "subset of detrand.pkgs that may read the wall clock")
	csv(&cc.Packages, "checkedcorruption.pkgs", "packages whose returned errors must be handled")
	csv(&np.AllowFiles, "nopanic.allow", "file suffixes sanctioned to panic")
	csv(&dm.Packages, "dirmap.pkgs", "packages where map[string]*File directory tables are forbidden")
	csv(&fa.Packages, "fsyncack.pkgs", "packages whose durable writes must reach an fsync")
	csv(&aw.Packages, "atomicwrite.pkgs", "packages whose state files must be written via tmp+rename")
	csv(&sp.Roots, "snapshotpure.roots", "call-graph roots of the snapshot/checkpoint encode paths")
	csv(&sp.Sinks, "snapshotpure.sinks", "extra process-local sinks forbidden under snapshot roots")
	csv(&cl.Packages, "ctxloop.pkgs", "packages whose unbounded loops must poll context cancellation")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: ffsvet [flags] [package patterns]\n\nAnalyzers:\n")
		for _, a := range DefaultSuite() {
			fmt.Fprintf(fs.Output(), "  ffsvet/%-18s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "\nSuppress a finding with a justified comment on the line or the line above:\n")
		fmt.Fprintf(fs.Output(), "  //lint:ignore ffsvet/<name> reason\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := Suite(dr, cc, np, dm, fa, aw, sp, cl)

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := LoadPatterns(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffsvet: %v\n", err)
		return 2
	}
	// One call graph spans every loaded package, so reachability
	// crosses package boundaries.
	diags := RunProgram(NewProgram(pkgs), analyzers)
	if *jsonOut {
		if err := WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "ffsvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// A JSONDiagnostic is the stable machine-readable finding shape emitted
// by `ffsvet -json`, consumed by CI tooling.
type JSONDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"` // qualified, e.g. "ffsvet/fsyncack"
	Message  string `json:"message"`
}

// WriteJSON renders diags as an indented JSON array (an empty run emits
// "[]", never "null", so consumers can always range the result).
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, JSONDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: "ffsvet/" + d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
