package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// perfbenchCmd matches the word perfbench followed by a space and the
// rest of its line up to a code span's end or a shell comment.
var perfbenchCmd = regexp.MustCompile("\\bperfbench\\s([^`#|]*)")

// perfbenchFlags returns a fresh flag set holding perfbench's flags.
func perfbenchFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	defineFlags(fs, new(cli))
	return fs
}

// docFlags scans doc for `perfbench -flag ...` command lines. It
// returns the flags they show and one message for each flag shown that
// perfbench does not define.
func docFlags(t *testing.T, doc string) (shown map[string]bool, bad []string) {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("..", "..", doc))
	if err != nil {
		t.Fatal(err)
	}
	fs := perfbenchFlags()
	isBool := func(f *flag.Flag) bool {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		return ok && b.IsBoolFlag()
	}
	shown = map[string]bool{}
	for i, line := range strings.Split(string(text), "\n") {
		for _, m := range perfbenchCmd.FindAllStringSubmatch(line, -1) {
			args := strings.Fields(m[1])
			for j := 0; j < len(args) && strings.HasPrefix(args[j], "-"); j++ {
				name, _, hasValue := strings.Cut(strings.TrimLeft(args[j], "-"), "=")
				f := fs.Lookup(name)
				if f == nil {
					bad = append(bad, fmt.Sprintf("%s:%d: perfbench has no flag %s", doc, i+1, args[j]))
					break
				}
				shown[name] = true
				if !isBool(f) && !hasValue {
					j++ // skip the flag's value
				}
			}
		}
	}
	return shown, bad
}

// TestDocsNameRealFlags: every `perfbench -flag` that README.md or
// DESIGN.md shows must be one of the command's flags.
func TestDocsNameRealFlags(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		_, bad := docFlags(t, doc)
		for _, msg := range bad {
			t.Error(msg)
		}
	}
}

// TestReadmeShowsEveryFlag is the reverse check: every flag perfbench
// defines must appear in README.md on a perfbench command line.
func TestReadmeShowsEveryFlag(t *testing.T) {
	shown, _ := docFlags(t, "README.md")
	perfbenchFlags().VisitAll(func(f *flag.Flag) {
		if !shown[f.Name] {
			t.Errorf("README.md shows no perfbench -%s", f.Name)
		}
	})
}
