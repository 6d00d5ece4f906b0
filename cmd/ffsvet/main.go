// Command ffsvet checks the repository's determinism, durability, and
// error-discipline invariants (see internal/analysis): the per-package
// syntactic checkers (detrand, maporder, checkedcorruption, nopanic,
// dirmap) and the whole-program reachability checkers (fsyncack,
// atomicwrite, snapshotpure, ctxloop), which query a conservative
// call graph spanning every analyzed package.
//
// ffsvet builds that graph over all matched packages and their test
// files at once; -json emits the findings as a JSON array on stdout:
//
//	go run ./cmd/ffsvet ./...
//	go run ./cmd/ffsvet -json ./...
package main

import (
	"os"

	"ffsage/internal/analysis"
)

func main() {
	os.Exit(analysis.Main(os.Args[1:]))
}
