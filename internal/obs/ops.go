package obs

// ops is the process-wide operational registry: the daemon's
// wall-clock serving telemetry — request latencies, queue depths, retry
// counts — which legitimately differs run to run. Every other registry
// is made with NewRegistry by the run that owns it and holds only
// simulated-time state (what WriteMetrics / WriteEvents / WriteSpans
// snapshot). The two must never mix: nothing reachable from a
// checkpoint, image, or resume-safe publish path may touch ops, a
// reachability property the ffsvet snapshotpure analyzer enforces by
// listing Ops as a sink.
var ops = NewRegistry()

// Ops returns the process-wide operational registry. The jobs HTTP
// layer and job lifecycle write here and the Prometheus exposition
// endpoint reads it; deterministic snapshot code must not.
func Ops() *Registry { return ops }
