package main

import (
	"flag"
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

// TestDocsNameRealFlags: every `fsimg <subcommand> -flag` that
// README.md, DESIGN.md or the verify notes show must be a flag of that
// subcommand.
func TestDocsNameRealFlags(t *testing.T) {
	isBool := func(f *flag.Flag) bool {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		return ok && b.IsBoolFlag()
	}
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range fsimgCmd.FindAllStringSubmatch(line, -1) {
				define, ok := subcommands[m[1]]
				if !ok {
					continue // prose: "fsimg loads each image ..."
				}
				fs := flag.NewFlagSet("fsimg "+m[1], flag.ContinueOnError)
				fs.SetOutput(io.Discard)
				define(fs, io.Discard)
				args := strings.Fields(m[2])
				for j := 0; j < len(args) && strings.HasPrefix(args[j], "-"); j++ {
					name, _, hasValue := strings.Cut(strings.TrimLeft(args[j], "-"), "=")
					f := fs.Lookup(name)
					if f == nil {
						t.Errorf("%s:%d: fsimg %s has no flag %s", doc, i+1, m[1], args[j])
						break
					}
					if !isBool(f) && !hasValue {
						j++ // skip the flag's value
					}
				}
			}
		}
	}
}
