package analysis

// AtomicwriteConfig scopes the torn-write check to the packages that
// persist artifact or state files (import paths, normalized per
// PkgPathOf).
type AtomicwriteConfig struct {
	Packages []string
}

// DefaultAtomicwriteConfig guards the layers that own crash-safe state:
// the WAL queue, the job manager's artifact/checkpoint writes, the
// aging checkpoints, and the trace codecs. cmd/* packages write
// human-facing reports where a torn file costs a re-run, not
// correctness, so they are deliberately absent.
func DefaultAtomicwriteConfig() AtomicwriteConfig {
	return AtomicwriteConfig{Packages: []string{
		"ffsage/internal/queue",
		"ffsage/internal/jobs",
		"ffsage/internal/aging",
		"ffsage/internal/trace",
	}}
}

// inPlacePrimitives create or replace a file at its final path; a crash
// mid-call leaves a torn or empty file where state used to be.
var inPlacePrimitives = map[string]bool{
	"os.WriteFile": true,
	"os.Create":    true,
}

// renamePrimitive is the commit point of the sanctioned tmp+rename
// idiom.
const renamePrimitive = "os.Rename"

// Atomicwrite builds the atomic-replacement analyzer: inside
// cfg.Packages, a direct call to os.WriteFile or os.Create is an error
// unless the calling function is itself an atomic-write helper — that
// is, its call closure also reaches os.Rename, committing the bytes
// via a temp file. The rename may be delegated (a helper, an interface
// method): the call graph is consulted. Everything else must route
// writes through such a helper, so no state file is ever truncated in
// place.
func Atomicwrite(cfg AtomicwriteConfig) *Analyzer {
	guarded := map[string]bool{}
	for _, p := range cfg.Packages {
		guarded[p] = true
	}
	return &Analyzer{
		Name: "atomicwrite",
		Doc:  "state files must be written via tmp+rename helpers, never created or truncated in place",
		RunProgram: func(pass *ProgramPass) {
			reachesRename := func(key string) bool {
				_, ok := pass.Prog.Reaches(key, func(n *Node) bool {
					return n.Key == renamePrimitive
				})
				return ok
			}
			for _, n := range pass.Prog.Graph.SortedNodes() {
				if !n.HasBody || n.InTest || !guarded[n.Pkg] {
					continue
				}
				for _, e := range sortedEdges(n) {
					if !inPlacePrimitives[e.Callee] || e.Dyn {
						continue
					}
					if reachesRename(n.Key) {
						break // helper-shaped: writes a temp path, then commits by rename
					}
					pass.ReportAt(e.Pos, "%s in %s writes a state file in place — a crash mid-write leaves a torn file at its final path; write it through trace.ReplaceFile, which writes a same-directory temp file, fsyncs it and renames it into place", e.Callee, n.Display)
				}
			}
		},
	}
}
