package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package of the module (or a test
// fixture directory): its syntax, its type information, and its import
// path, sharing one FileSet with every other package of the load.
type Package struct {
	Path  string // import path ("repro/internal/obs")
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// newInfo allocates the types.Info maps the analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
}

// fset and std are the one FileSet and the one stdlib importer of the
// process: every load positions its files in fset and resolves anything
// outside the module through std. The "source" compiler importer
// type-checks the standard library from GOROOT/src, so the tool needs no
// prebuilt export data, and keeps what it has checked — sharing it is what
// makes net/http & co. cost one type-check per process instead of one per
// load. It is bound to a FileSet when built, hence the shared fset.
var (
	fset = token.NewFileSet()
	std  = &sourceImporter{}
)

// sourceImporter serializes the source importer, which is not
// concurrency-safe, and builds it on first use. cgo is disabled so packages
// like net resolve to their pure Go fallbacks.
type sourceImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (s *sourceImporter) Import(path string) (*types.Package, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.imp == nil {
		build.Default.CgoEnabled = false
		s.imp = importer.ForCompiler(fset, "source", nil)
	}
	return s.imp.Import(path)
}

// moduleImporter resolves module-internal paths from the packages already
// type-checked this load and everything else via std.
type moduleImporter struct {
	done map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.done[path]; ok {
		return p, nil
	}
	return std.Import(path)
}

// ModulePath reads the module path from root/go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(mod); err == nil {
				mod = unq
			}
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// parseDir parses into fset every non-test .go file of one directory that the
// go tool would build for this GOOS/GOARCH: _amd64 suffixes and //go:build
// lines select files, as they do for the compiler.
func parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadModule parses and type-checks every non-test package under root (the
// module root) and returns them in topological dependency order, imports
// before importers. testdata, hidden, and underscore-prefixed directories
// are skipped, exactly as the go tool skips them.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}

	// Discover package directories.
	type rawPkg struct {
		path    string
		files   []*ast.File
		imports []string
	}
	raw := map[string]*rawPkg{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := parseDir(path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		rp := &rawPkg{path: importPath, files: files}
		seen := map[string]bool{}
		for _, f := range files {
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				// The module root package's own path has no "/" suffix —
				// missing it would let an importer type-check first and
				// the source importer mint a second, incompatible
				// instance of the root package.
				if (p == modPath || strings.HasPrefix(p, modPath+"/")) && !seen[p] {
					seen[p] = true
					rp.imports = append(rp.imports, p)
				}
			}
		}
		raw[importPath] = rp
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Type-check in topological order, depth first: every module-internal
	// import of a package is in the done map before the package is checked.
	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	imp := &moduleImporter{done: map[string]*types.Package{}}
	visiting := map[string]bool{}
	var pkgs []*Package
	var visit func(p string) error
	visit = func(p string) error {
		if _, ok := imp.done[p]; ok {
			return nil
		}
		if visiting[p] {
			return fmt.Errorf("lint: import cycle through %s", p)
		}
		visiting[p] = true
		deps := append([]string(nil), raw[p].imports...)
		sort.Strings(deps)
		for _, d := range deps {
			if _, ok := raw[d]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		files, info := raw[p].files, newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p, fset, files, info)
		if err != nil {
			return fmt.Errorf("lint: type-checking %s: %w", p, err)
		}
		imp.done[p] = tpkg
		pkgs = append(pkgs, &Package{Path: p, Fset: fset, Files: files, Types: tpkg, Info: info})
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}
