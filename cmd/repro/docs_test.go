package main

import (
	"flag"
	"fmt"
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

// reproFlags returns a fresh flag set holding repro's flags.
func reproFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	defineFlags(fs, new(cli))
	return fs
}

// docFlags scans doc for `repro -flag ...` command lines. It returns
// the flags they show and one message for each flag shown that repro
// does not define or -only value that is no exhibit key.
func docFlags(t *testing.T, doc string) (shown map[string]bool, bad []string) {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("..", "..", doc))
	if err != nil {
		t.Fatal(err)
	}
	fs := reproFlags()
	isBool := func(f *flag.Flag) bool {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		return ok && b.IsBoolFlag()
	}
	keys := repro.Keys()
	shown = map[string]bool{}
	for i, line := range strings.Split(string(text), "\n") {
		for _, m := range reproCmd.FindAllStringSubmatch(line, -1) {
			args := strings.Fields(m[1])
			for j := 0; j < len(args) && strings.HasPrefix(args[j], "-"); j++ {
				name, _, hasValue := strings.Cut(strings.TrimLeft(args[j], "-"), "=")
				f := fs.Lookup(name)
				if f == nil {
					bad = append(bad, fmt.Sprintf("%s:%d: repro has no flag %s", doc, i+1, args[j]))
					break
				}
				shown[name] = true
				if !isBool(f) && !hasValue {
					j++ // skip the flag's value
				}
			}
		}
		for _, m := range onlyArg.FindAllStringSubmatch(line, -1) {
			for _, k := range strings.Split(m[1], ",") {
				if k != "" && !slices.Contains(keys, k) {
					bad = append(bad, fmt.Sprintf("%s:%d: -only %s is no exhibit key (valid: %s)", doc, i+1, k, strings.Join(keys, ",")))
				}
			}
		}
	}
	return shown, bad
}

// TestDocsNameRealFlags: every `repro -flag` that README.md or
// DESIGN.md shows must be one of the command's flags, and every -only
// value they give must be an exhibit key.
func TestDocsNameRealFlags(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		_, bad := docFlags(t, doc)
		for _, msg := range bad {
			t.Error(msg)
		}
	}
}

// TestReadmeShowsEveryFlag is the reverse check: every flag repro
// defines must appear in README.md on a repro command line.
func TestReadmeShowsEveryFlag(t *testing.T) {
	shown, _ := docFlags(t, "README.md")
	reproFlags().VisitAll(func(f *flag.Flag) {
		if !shown[f.Name] {
			t.Errorf("README.md shows no repro -%s", f.Name)
		}
	})
}
