package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// DefaultSuite is the analyzer suite with the repository's sanctioned
// configuration — what CI enforces: the per-package syntactic checkers
// first, then the whole-program reachability checkers.
func DefaultSuite() []*Analyzer {
	return []*Analyzer{
		Detrand(DefaultDetrandConfig()),
		Maporder(),
		CheckedCorruption(DefaultCheckedCorruptionConfig()),
		Nopanic(DefaultNopanicConfig()),
		Dirmap(DefaultDirmapConfig()),
		Fsyncack(DefaultFsyncackConfig()),
		Atomicwrite(DefaultAtomicwriteConfig()),
		Snapshotpure(DefaultSnapshotpureConfig()),
		Ctxloop(DefaultCtxloopConfig()),
	}
}

// Main implements cmd/ffsvet: `ffsvet [flags] [patterns]` loads the
// matching packages with their test files via `go list -test -export`
// (see LoadPatterns) and runs the suite over one whole-program call
// graph. Returns the process exit code.
func Main(args []string) int {
	fs := flag.NewFlagSet("ffsvet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
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
	diags := RunProgram(NewProgram(pkgs), DefaultSuite())
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
