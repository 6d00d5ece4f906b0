package analysis

// A minimal analogue of golang.org/x/tools/go/analysis/analysistest:
// fixture packages live under testdata/src/<path>, and every expected
// finding is declared in the fixture source as a trailing comment
//
//	// want `regexp` [`regexp` ...]
//
// matched against the diagnostics raised on that line. A comment of
// the form `// want@N ...` anchors the expectation to line N instead,
// for findings on lines that cannot carry a trailing comment (e.g. a
// malformed //lint:ignore directive, which is itself a finding).
// The test fails on any unexpected diagnostic and on any unmatched
// expectation, so the fixtures are golden: they pin the full remedy
// text of each message.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// stdFixtureImports are the standard-library packages fixtures may
// import; their export data is listed once per test binary.
var stdFixtureImports = []string{
	"bytes", "context", "errors", "fmt", "io", "log", "maps",
	"math/rand", "math/rand/v2", "os", "slices", "sort", "strings",
	"time",
}

var (
	stdExportsOnce sync.Once
	stdExports     map[string]string
	stdExportsErr  error
)

func stdExportTable(t *testing.T) map[string]string {
	t.Helper()
	stdExportsOnce.Do(func() {
		args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, stdFixtureImports...)
		cmd := exec.Command("go", args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			stdExportsErr = fmt.Errorf("go list: %v\n%s", err, stderr.String())
			return
		}
		stdExports = map[string]string{}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				stdExportsErr = err
				return
			}
			if p.Export != "" {
				stdExports[p.ImportPath] = p.Export
			}
		}
	})
	if stdExportsErr != nil {
		t.Fatalf("loading stdlib export data: %v", stdExportsErr)
	}
	return stdExports
}

// fixtureLoader type-checks fixture packages, resolving imports first
// against sibling fixture directories, then against stdlib export data.
type fixtureLoader struct {
	t       *testing.T
	fset    *token.FileSet
	srcRoot string
	std     types.Importer
	cache   map[string]*Package
}

func newFixtureLoader(t *testing.T) *fixtureLoader {
	fset := token.NewFileSet()
	return &fixtureLoader{
		t:       t,
		fset:    fset,
		srcRoot: filepath.Join("testdata", "src"),
		std:     NewExportImporter(fset, nil, stdExportTable(t)),
		cache:   map[string]*Package{},
	}
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.srcRoot, filepath.FromSlash(path)); isDir(dir) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

func (l *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	files, err := parseFiles(l.fset, filenames, nil)
	if err != nil {
		return nil, err
	}
	info := NewInfo()
	conf := types.Config{Importer: l, GoVersion: "go1.22"}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", path, err)
	}
	pkg := &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = pkg
	return pkg, nil
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("// want(@[0-9]+)? (.+)$")
var wantArgRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectExpectations extracts // want comments from the fixture files.
func collectExpectations(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var exps []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				line := pos.Line
				if m[1] != "" {
					line, _ = strconv.Atoi(m[1][1:])
				}
				args := wantArgRE.FindAllString(m[2], -1)
				if len(args) == 0 {
					t.Fatalf("%s: malformed want comment: %s", pos, c.Text)
				}
				for _, arg := range args {
					pat, err := strconv.Unquote(arg)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, arg, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					exps = append(exps, &expectation{file: pos.Filename, line: line, re: re})
				}
			}
		}
	}
	return exps
}

// runFixture analyzes one fixture package with one analyzer and diffs
// the findings against the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	l := newFixtureLoader(t)
	pkg, err := l.load(path)
	if err != nil {
		t.Fatal(err)
	}
	exps := collectExpectations(t, pkg.Fset, pkg.Files)
	diags := Run(pkg, []*Analyzer{a})
outer:
	for _, d := range diags {
		for _, e := range exps {
			if !e.matched && e.file == d.Pos.Filename && e.line == d.Pos.Line && e.re.MatchString(d.Message) {
				e.matched = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, e := range exps {
		if !e.matched {
			t.Errorf("%s:%d: expected a diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
}
