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
	"runtime"
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
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
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
// type-checked this load and everything else via std. The done map is
// written only between topo levels (never while checks are in flight) so
// concurrent same-level type-checking reads it without locks.
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
// module root) and returns them in topological dependency order (imports
// before importers — the order the inter-procedural passes rely on).
// Packages that don't depend on each other type-check concurrently,
// level by level. testdata, hidden, and underscore-prefixed directories
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

	// Topologically order the module-internal dependency graph.
	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []string
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", p)
		}
		state[p] = visiting
		deps := append([]string(nil), raw[p].imports...)
		sort.Strings(deps)
		for _, d := range deps {
			if _, ok := raw[d]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[p] = done
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	// Group the topological order into levels: a package's level is one
	// past its deepest module-internal dependency, so every package in a
	// level depends only on lower levels and the whole level can
	// type-check concurrently.
	level := map[string]int{}
	maxLevel := 0
	for _, p := range order {
		lv := 0
		for _, d := range raw[p].imports {
			if _, ok := raw[d]; ok && level[d]+1 > lv {
				lv = level[d] + 1
			}
		}
		level[p] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	buckets := make([][]string, maxLevel+1)
	for _, p := range order { // keeps the deterministic topo order within a level
		buckets[level[p]] = append(buckets[level[p]], p)
	}

	// Type-check level by level, packages within a level in parallel. The
	// FileSet is concurrency-safe; module-internal imports hit the done
	// map (complete for all lower levels), and stdlib imports serialize
	// through std. Workers are capped at GOMAXPROCS: on a single-core host
	// the level degenerates to the sequential walk with no goroutine or
	// lock overhead.
	imp := &moduleImporter{done: map[string]*types.Package{}}
	var pkgs []*Package
	for _, bucket := range buckets {
		checked := make([]*Package, len(bucket))
		errs := make([]error, len(bucket))
		checkOne := func(i int) {
			p := bucket[i]
			rp := raw[p]
			info := newInfo()
			conf := types.Config{Importer: imp}
			tpkg, err := conf.Check(p, fset, rp.files, info)
			if err != nil {
				errs[i] = fmt.Errorf("lint: type-checking %s: %w", p, err)
				return
			}
			checked[i] = &Package{Path: p, Fset: fset, Files: rp.files, Types: tpkg, Info: info}
		}
		if workers := min(runtime.GOMAXPROCS(0), len(bucket)); workers <= 1 {
			for i := range bucket {
				checkOne(i)
			}
		} else {
			next := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range next {
						checkOne(i)
					}
				}()
			}
			for i := range bucket {
				next <- i
			}
			close(next)
			wg.Wait()
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for _, pkg := range checked {
			imp.done[pkg.Path] = pkg.Types
			pkgs = append(pkgs, pkg)
		}
	}
	// pkgs is in topological dependency order — the order Run's analyzers
	// rely on to see callees before their callers.
	return pkgs, nil
}
