package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// An ExportImporter resolves imports against compiler export data, the
// way cmd/vet does: importMap translates source import paths to
// canonical package paths (a test variant's imports of recompiled
// packages), exports maps those to export-data files produced by the
// gc compiler (go list -export).
type ExportImporter struct {
	inner types.ImporterFrom
}

// NewExportImporter builds an importer over the given tables. A nil
// importMap means the identity mapping.
func NewExportImporter(fset *token.FileSet, importMap, exports map[string]string) *ExportImporter {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return &ExportImporter{inner: importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)}
}

func (ei *ExportImporter) Import(path string) (*types.Package, error) {
	return ei.inner.ImportFrom(path, "", 0)
}

// TypeCheck parses nothing itself: it type-checks already-parsed files
// into a Package ready for Run.
func TypeCheck(fset *token.FileSet, path, goVersion string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := NewInfo()
	conf := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", envOr("GOARCH", runtime.GOARCH)),
		GoVersion: goVersion,
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

// A Patch rewrites a source file's bytes before parsing; filename is
// the file's absolute path. Mutation tests use it to seed defects into
// the real tree without touching it.
type Patch func(filename string, src []byte) []byte

// parseFiles parses the named files (absolute paths) with comments,
// which the suppression scanner needs, applying patch when non-nil.
func parseFiles(fset *token.FileSet, filenames []string, patch Patch) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range filenames {
		var src any
		if patch != nil {
			data, err := os.ReadFile(name)
			if err != nil {
				return nil, err
			}
			src = patch(name, data)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	ForTest    string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
}

// LoadPatterns loads every package matching the go list patterns with
// its tests, type-checked against fresh gc export data. A package with
// in-package tests is analyzed as its test variant ("p [p.test]", its
// sources plus its _test.go files) in place of the plain package, an
// external test package ("p_test [p.test]") is analyzed too, and both
// are type-checked under their bare import paths. The synthesized
// p.test mains and dependencies recompiled for a test are skipped.
func LoadPatterns(dir string, patterns []string) ([]*Package, error) {
	return loadPatterns(dir, patterns, nil)
}

func loadPatterns(dir string, patterns []string, patch Patch) ([]*Package, error) {
	args := append([]string{
		"list", "-test", "-export", "-deps",
		"-json=ImportPath,Dir,Name,Export,GoFiles,ForTest,ImportMap,Standard,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	tested := map[string]bool{} // packages whose test variant replaces them
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		switch path, _, _ := strings.Cut(p.ImportPath, " "); {
		case p.ForTest == "" && p.Name == "main" && strings.HasSuffix(p.ImportPath, ".test"):
			continue // synthesized test main
		case p.ForTest != "" && path != p.ForTest && path != p.ForTest+"_test":
			continue // dependency recompiled for a test
		case path == p.ForTest:
			tested[path] = true
		}
		targets = append(targets, &p)
	}

	goVersion := goVersionOf(dir)
	var pkgs []*Package
	for _, t := range targets {
		if t.ForTest == "" && tested[t.ImportPath] {
			continue
		}
		path, _, _ := strings.Cut(t.ImportPath, " ")
		fset := token.NewFileSet()
		var filenames []string
		for _, f := range t.GoFiles {
			filenames = append(filenames, filepath.Join(t.Dir, f))
		}
		files, err := parseFiles(fset, filenames, patch)
		if err != nil {
			return nil, err
		}
		pkg, err := TypeCheck(fset, path, goVersion, files, NewExportImporter(fset, t.ImportMap, exports))
		if err != nil {
			return nil, fmt.Errorf("%s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goVersionOf asks go list for the module's language version so the
// type-checker matches the build.
func goVersionOf(dir string) string {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.GoVersion}}")
	cmd.Dir = dir
	out, err := cmd.Output()
	v := strings.TrimSpace(string(out))
	if err != nil || v == "" {
		return ""
	}
	return "go" + v
}
