package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ffsage/internal/repro"
)

var (
	// reproCmd matches the word repro and the rest of its line up to a
	// code span's end or a shell comment.
	reproCmd = regexp.MustCompile("\\brepro\\b([^`#|]*)")
	// onlyArg matches an -only flag and its value anywhere in the text.
	onlyArg = regexp.MustCompile("(?:^|[\\s`(])-only[ =]([A-Za-z0-9_,]+)")
)

// TestDocsNameRealFlags: every `repro -flag` that README.md or
// DESIGN.md shows must be one of the command's flags, and every -only
// value they give must be an exhibit key.
func TestDocsNameRealFlags(t *testing.T) {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	defineFlags(fs, new(cli))
	isBool := func(f *flag.Flag) bool {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		return ok && b.IsBoolFlag()
	}
	keys := repro.Keys()
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range reproCmd.FindAllStringSubmatch(line, -1) {
				args := strings.Fields(m[1])
				for j := 0; j < len(args) && strings.HasPrefix(args[j], "-"); j++ {
					name, _, hasValue := strings.Cut(strings.TrimLeft(args[j], "-"), "=")
					f := fs.Lookup(name)
					if f == nil {
						t.Errorf("%s:%d: repro has no flag %s", doc, i+1, args[j])
						break
					}
					if !isBool(f) && !hasValue {
						j++ // skip the flag's value
					}
				}
			}
			for _, m := range onlyArg.FindAllStringSubmatch(line, -1) {
				for _, k := range strings.Split(m[1], ",") {
					if k != "" && !slices.Contains(keys, k) {
						t.Errorf("%s:%d: -only %s is no exhibit key (valid: %s)", doc, i+1, k, strings.Join(keys, ","))
					}
				}
			}
		}
	}
}
