package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// ErrLoad reports a failure to enumerate, parse, or type-check the
// requested packages.
var ErrLoad = errors.New("analysis: load failed")

// A Package is one loaded, parsed, and type-checked package.
type Package struct {
	// PkgPath is the package's import path.
	PkgPath string
	// Name is the package name.
	Name string
	// Dir is the directory holding the package's sources.
	Dir string
	// Root marks packages named by the Load patterns (as opposed to
	// dependencies pulled in only for type information).
	Root bool
	// Fset is the file set shared by every package of one Load call.
	Fset *token.FileSet
	// Files are the parsed non-test sources.
	Files []*ast.File
	// Types is the type-checked package (nil when parsing failed).
	Types *types.Package
	// Info holds full type-checking facts for root packages.
	Info *types.Info
	// Errors collects parse and type errors; analyzers only run on
	// error-free packages.
	Errors []error
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	DepOnly    bool
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load enumerates the packages matching the patterns (relative to dir),
// parses them together with their full dependency closure, and type
// checks everything from source in dependency order. It needs only the
// go command and GOROOT sources — no compiled export data and no
// third-party loader — which keeps the module dependency-free.
//
// Cgo is disabled for the enumeration so that every dependency is pure
// Go and can be checked from source.
func Load(dir string, patterns ...string) ([]*Package, error) {
	metas, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*listPkg, len(metas))
	for _, m := range metas {
		byPath[m.ImportPath] = m
	}
	order, err := topoOrder(metas, byPath)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	built := make(map[string]*types.Package, len(order))
	imp := &mapImporter{built: built}
	var out []*Package
	for _, m := range order {
		pkg := typeCheck(fset, m, imp)
		if pkg.Types != nil {
			built[m.ImportPath] = pkg.Types
		}
		out = append(out, pkg)
	}
	return out, nil
}

// Roots filters a Load result down to the packages named by the
// patterns — the analysis targets.
func Roots(pkgs []*Package) []*Package {
	var out []*Package
	for _, p := range pkgs {
		if p.Root {
			out = append(out, p)
		}
	}
	return out
}

// goList shells out to `go list -e -deps -json` and decodes the stream.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: go list %v: %w\n%s", ErrLoad, patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(stdout))
	var metas []*listPkg
	for {
		m := new(listPkg)
		if err := dec.Decode(m); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%w: decoding go list output: %w", ErrLoad, err)
		}
		metas = append(metas, m)
	}
	if len(metas) == 0 {
		return nil, fmt.Errorf("%w: no packages match %v", ErrLoad, patterns)
	}
	return metas, nil
}

// topoOrder sorts packages so every package follows its imports.
func topoOrder(metas []*listPkg, byPath map[string]*listPkg) ([]*listPkg, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(metas))
	var order []*listPkg
	var visit func(m *listPkg) error
	visit = func(m *listPkg) error {
		switch state[m.ImportPath] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("%w: import cycle through %s", ErrLoad, m.ImportPath)
		}
		state[m.ImportPath] = visiting
		for _, imp := range m.Imports {
			if mapped, ok := m.ImportMap[imp]; ok {
				imp = mapped
			}
			if imp == "unsafe" || imp == "C" {
				continue
			}
			dep, ok := byPath[imp]
			if !ok {
				return fmt.Errorf("%w: %s imports %s, which go list did not report", ErrLoad, m.ImportPath, imp)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[m.ImportPath] = done
		order = append(order, m)
		return nil
	}
	for _, m := range metas {
		if err := visit(m); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// mapImporter resolves imports from the packages type-checked so far.
// Type checking is strictly serial and in dependency order, so cur (the
// package being checked, for its vendor ImportMap) is plain state.
type mapImporter struct {
	built map[string]*types.Package
	cur   *listPkg
}

// Import resolves one import path against the built-package map.
func (mi *mapImporter) Import(path string) (*types.Package, error) {
	if mi.cur != nil {
		if mapped, ok := mi.cur.ImportMap[path]; ok {
			path = mapped
		}
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	pkg, ok := mi.built[path]
	if !ok {
		return nil, fmt.Errorf("%w: import %q not yet type-checked", ErrLoad, path)
	}
	return pkg, nil
}

// typeCheck parses and checks one package from source.
func typeCheck(fset *token.FileSet, m *listPkg, imp *mapImporter) *Package {
	pkg := &Package{
		PkgPath: m.ImportPath,
		Name:    m.Name,
		Dir:     m.Dir,
		Root:    !m.DepOnly,
		Fset:    fset,
	}
	if m.Error != nil {
		pkg.Errors = append(pkg.Errors, fmt.Errorf("%w: %s: %s", ErrLoad, m.ImportPath, m.Error.Err))
		return pkg
	}
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(m.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pkg.Errors = append(pkg.Errors, err)
			continue
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Errors) > 0 || len(pkg.Files) == 0 {
		return pkg
	}

	// Full fact tables are only kept for analysis targets; dependencies
	// just need their package-level type information.
	if pkg.Root {
		pkg.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if pkg.Root {
				pkg.Errors = append(pkg.Errors, err)
			}
		},
	}
	imp.cur = m
	tpkg, err := conf.Check(m.ImportPath, fset, pkg.Files, pkg.Info)
	imp.cur = nil
	if err != nil && !pkg.Root {
		// A broken dependency surfaces on the roots that import it.
		pkg.Errors = append(pkg.Errors, err)
	}
	pkg.Types = tpkg
	return pkg
}
