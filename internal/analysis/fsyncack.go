package analysis

// FsyncackConfig scopes the durability check to the packages whose
// writes are acknowledged to callers as durable (import paths,
// normalized per PkgPathOf).
type FsyncackConfig struct {
	Packages []string
}

// DefaultFsyncackConfig guards the WAL queue and the job manager, which
// acknowledge operations (WAL append → Enqueue/Ack returns nil; job
// artifacts written → job acked) that a crash must not un-happen, and
// trace, whose ReplaceFile writes every state file they replace.
func DefaultFsyncackConfig() FsyncackConfig {
	return FsyncackConfig{Packages: []string{
		"ffsage/internal/queue",
		"ffsage/internal/jobs",
		"ffsage/internal/trace",
	}}
}

// writePrimitives are the durable-append sinks: a function that calls
// one of these has put bytes in the page cache that a caller may be
// told are safe.
var writePrimitives = map[string]bool{
	"os.WriteFile":           true,
	"(*os.File).Write":       true,
	"(*os.File).WriteString": true,
}

// syncPrimitives actually force bytes to stable storage.
var syncPrimitives = map[string]bool{
	"(*os.File).Sync": true,
}

// Fsyncack builds the fsync-before-acknowledge analyzer: inside
// cfg.Packages, any function that directly performs a durable write
// (os.WriteFile, (*os.File).Write/WriteString) must also reach
// (*os.File).Sync through its own call closure — otherwise the write
// can be acknowledged, and then lost with the page cache on power
// failure. The Sync may be any number of calls away (a helper, an
// interface method, a stored function value): the call graph is
// consulted, not the file's text. Only the function that issues the
// write is flagged, so a missing fsync reports once, at the write,
// rather than cascading up every caller.
func Fsyncack(cfg FsyncackConfig) *Analyzer {
	guarded := map[string]bool{}
	for _, p := range cfg.Packages {
		guarded[p] = true
	}
	return &Analyzer{
		Name: "fsyncack",
		Doc:  "durable writes in ack-bearing packages must reach an fsync before success is returned",
		RunProgram: func(pass *ProgramPass) {
			reachesSync := func(key string) bool {
				_, ok := pass.Prog.Reaches(key, func(n *Node) bool {
					return syncPrimitives[n.Key]
				})
				return ok
			}
			for _, n := range pass.Prog.Graph.SortedNodes() {
				if !n.HasBody || n.InTest || !guarded[n.Pkg] {
					continue
				}
				for _, e := range sortedEdges(n) {
					if !writePrimitives[e.Callee] || e.Dyn {
						continue
					}
					if reachesSync(n.Key) {
						break // one Sync in the closure covers every write here
					}
					pass.ReportAt(e.Pos, "%s appends durable state in %s, but no path from %s reaches (*os.File).Sync; a crash after the caller is acknowledged would silently lose the operation — Sync before returning success, or route the write through trace.ReplaceFile", e.Callee, n.Display, n.Display)
				}
			}
		},
	}
}
