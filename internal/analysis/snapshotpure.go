package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// SnapshotpureConfig declares the roots and extra sinks of the
// snapshot-purity check. Roots are call-graph node keys — package-level
// functions as "pkg/path.Func", methods as "(*pkg/path.T).Method" — of
// the checkpoint/snapshot/resume encode paths. Sinks beyond the
// built-in wall-clock and global-rand sets (process-local state that
// must not leak into resume-deterministic output) are added the same
// way.
type SnapshotpureConfig struct {
	Roots []string
	Sinks []string
}

// DefaultSnapshotpureConfig roots the check at every function whose
// output must be byte-identical between an uninterrupted run and a
// crash+resume: the checkpoint codec, the aged-image codec, the
// resume-safe metrics/events publisher, and the job manager's
// checkpoint and artifact writers. (*FileSystem).PoolStats joins the
// sink set because arena counters describe this process's execution —
// a resumed run starts with an empty pool — which is exactly the kind
// of state the contract excludes; only tests read them. obs.Ops is a sink
// for the same reason: it hands out the process-wide wall-clock
// operational registry (request latencies, queue gauges), which must
// stay reachable only from serving paths, never from anything that
// encodes resume-deterministic output.
func DefaultSnapshotpureConfig() SnapshotpureConfig {
	return SnapshotpureConfig{
		Roots: []string{
			"ffsage/internal/trace.WriteCheckpoint",
			"ffsage/internal/trace.ReadCheckpoint",
			"ffsage/internal/aging.PublishResult",
			"(*ffsage/internal/jobs.Manager).saveCheckpoint",
			"(*ffsage/internal/jobs.Manager).loadCheckpoint",
			"(*ffsage/internal/jobs.Manager).writeArtifacts",
			"(*ffsage/internal/ffs.FileSystem).SaveImage",
			"ffsage/internal/ffs.LoadImage",
		},
		Sinks: []string{
			"(*ffsage/internal/ffs.FileSystem).PoolStats",
			"ffsage/internal/obs.Ops",
		},
	}
}

// snapshotSinkClass classifies a call-graph key as a determinism sink,
// returning a short phrase for the diagnostic, or "" when clean.
func snapshotSinkClass(key string, extra map[string]bool) string {
	if extra[key] {
		return "process-local state that differs under resume"
	}
	if name, ok := strings.CutPrefix(key, "time."); ok && timeForbidden[name] {
		return "the wall clock"
	}
	for _, prefix := range []string{"math/rand.", "math/rand/v2."} {
		if name, ok := strings.CutPrefix(key, prefix); ok && !randConstructors[name] && !strings.Contains(name, ".") {
			return "the process-global random generator"
		}
	}
	return ""
}

// Snapshotpure builds the snapshot-purity analyzer: no function
// reachable from a configured root may call a wall-clock or global-rand
// function, or a configured process-local sink. This is detrand
// generalized from syntactic to semantic — the root's package may
// legitimately use time (internal/jobs schedules retries with it), but
// its snapshot paths may not, however many calls deep, through however
// many interfaces or stored callbacks the reach goes. Each finding is
// reported at the offending call with one witness path from a root.
func Snapshotpure(cfg SnapshotpureConfig) *Analyzer {
	roots := map[string]bool{}
	for _, r := range cfg.Roots {
		roots[r] = true
	}
	extraSinks := map[string]bool{}
	for _, s := range cfg.Sinks {
		extraSinks[s] = true
	}
	return &Analyzer{
		Name: "snapshotpure",
		Doc:  "checkpoint/snapshot/resume paths must not reach wall-clock, global rand, or process-local state",
		RunProgram: func(pass *ProgramPass) {
			g := pass.Prog.Graph
			var rootKeys []string
			for key := range g.Nodes {
				if roots[key] {
					rootKeys = append(rootKeys, key)
				}
			}
			sort.Strings(rootKeys)
			type finding struct {
				pos   token.Position
				sink  string
				class string
				path  Path
			}
			reported := map[string]*finding{} // keyed by position+sink; first (sorted) root wins
			var order []string
			for _, root := range rootKeys {
				parent := map[string]string{root: ""}
				queue := []string{root}
				for len(queue) > 0 {
					key := queue[0]
					queue = queue[1:]
					n := g.Nodes[key]
					if n == nil || !n.HasBody {
						continue
					}
					for _, e := range sortedEdges(n) {
						if class := snapshotSinkClass(e.Callee, extraSinks); class != "" {
							id := e.Pos.String() + "|" + e.Callee
							if reported[id] == nil {
								var path Path
								for k := key; k != ""; k = parent[k] {
									path = append(Path{g.Nodes[k]}, path...)
								}
								reported[id] = &finding{pos: e.Pos, sink: e.Callee, class: class, path: path}
								order = append(order, id)
							}
							continue
						}
						if _, seen := parent[e.Callee]; !seen {
							parent[e.Callee] = key
							queue = append(queue, e.Callee)
						}
					}
				}
			}
			for _, id := range order {
				f := reported[id]
				pass.ReportAt(f.pos, "%s reads %s inside a snapshot path (%s); checkpoint, image, and resume-safe metrics output must be byte-identical between a fresh run and a crash+resume — derive the value from simulated/persisted state, or move the call out of the encode path", f.sink, f.class, f.path)
			}
		},
	}
}
