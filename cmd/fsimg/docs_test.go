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

// fsimgCmd matches the word fsimg, the word after it and the rest of
// its line up to a code span's end, a table cell's end or a shell
// comment.
var fsimgCmd = regexp.MustCompile("\\bfsimg[ \t]+([a-z]+)([^`#|]*)")

// subcommandFlags returns a fresh flag set holding subcommand sub's
// flags.
func subcommandFlags(sub string) *flag.FlagSet {
	fs := flag.NewFlagSet("fsimg "+sub, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	subcommands[sub](fs, io.Discard)
	return fs
}

// docFlags scans doc for `fsimg <subcommand> -flag ...` command lines.
// It returns the flags they show, keyed "subcommand -flag", and one
// message for each flag shown that its subcommand does not define.
func docFlags(t *testing.T, doc string) (shown map[string]bool, bad []string) {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("..", "..", doc))
	if err != nil {
		t.Fatal(err)
	}
	isBool := func(f *flag.Flag) bool {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		return ok && b.IsBoolFlag()
	}
	shown = map[string]bool{}
	for i, line := range strings.Split(string(text), "\n") {
		for _, m := range fsimgCmd.FindAllStringSubmatch(line, -1) {
			if _, ok := subcommands[m[1]]; !ok {
				continue // prose: "fsimg loads each image ..."
			}
			fs := subcommandFlags(m[1])
			args := strings.Fields(m[2])
			for j := 0; j < len(args) && strings.HasPrefix(args[j], "-"); j++ {
				name, _, hasValue := strings.Cut(strings.TrimLeft(args[j], "-"), "=")
				f := fs.Lookup(name)
				if f == nil {
					bad = append(bad, fmt.Sprintf("%s:%d: fsimg %s has no flag %s", doc, i+1, m[1], args[j]))
					break
				}
				shown[m[1]+" -"+name] = true
				if !isBool(f) && !hasValue {
					j++ // skip the flag's value
				}
			}
		}
	}
	return shown, bad
}

// TestDocsNameRealFlags: every `fsimg <subcommand> -flag` that
// README.md, DESIGN.md or the verify notes show must be a flag of that
// subcommand.
func TestDocsNameRealFlags(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		_, bad := docFlags(t, doc)
		for _, msg := range bad {
			t.Error(msg)
		}
	}
}

// TestReadmeShowsEveryFlag is the reverse check: every flag an fsimg
// subcommand defines must appear in README.md, on a command line of
// that subcommand.
func TestReadmeShowsEveryFlag(t *testing.T) {
	shown, _ := docFlags(t, "README.md")
	for sub := range subcommands {
		subcommandFlags(sub).VisitAll(func(f *flag.Flag) {
			if !shown[sub+" -"+f.Name] {
				t.Errorf("README.md shows no fsimg %s -%s", sub, f.Name)
			}
		})
	}
}
