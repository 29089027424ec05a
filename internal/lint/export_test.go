package lint

import (
	"fmt"
	"go/types"
)

// LoadDir parses and type-checks the single package in dir under the given
// import path. Fixture packages may import only the standard library; the
// analyzer tests use this to load testdata packages the module build never
// sees.
func LoadDir(dir, importPath string) (*Package, error) {
	files, err := parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := newInfo()
	conf := types.Config{Importer: std}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", dir, err)
	}
	return &Package{Path: importPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
