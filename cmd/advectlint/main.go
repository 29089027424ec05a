// Command advectlint runs the project's static analyzer suite
// (internal/lint) over the module: it loads and type-checks every non-test
// package with the standard library's go/* packages only, runs the default
// analyzer registry, and prints one "file:line:col: [analyzer] message"
// diagnostic per finding, exiting non-zero when anything is flagged.
//
// Usage:
//
//	go run ./cmd/advectlint ./...          # whole module (the CI gate)
//	go run ./cmd/advectlint ./internal/obs # only packages under a path
//	go run ./cmd/advectlint -list          # describe the analyzers
//
// Path arguments are prefixes of module-relative package directories;
// "./..." (or no argument) selects everything. Findings are suppressed only
// by an audited "//advect:nolint <analyzer> <reason>" directive; see the
// internal/lint package documentation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("advectlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.Default()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "advectlint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "advectlint:", err)
		return 2
	}
	modPath, err := lint.ModulePath(root)
	if err != nil {
		fmt.Fprintln(stderr, "advectlint:", err)
		return 2
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "advectlint:", err)
		return 2
	}
	if filtered := filterPackages(pkgs, modPath, fs.Args()); filtered != nil {
		pkgs = filtered
	} else {
		fmt.Fprintln(stderr, "advectlint: no packages match", fs.Args())
		return 2
	}

	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "advectlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// filterPackages keeps the packages selected by the path-prefix patterns;
// no patterns or "./..." selects everything. Returns nil when a pattern
// matches nothing.
func filterPackages(pkgs []*lint.Package, modPath string, patterns []string) []*lint.Package {
	var cleaned []string
	for _, p := range patterns {
		p = strings.TrimSuffix(p, "...")
		p = strings.TrimSuffix(p, "/")
		p = strings.TrimPrefix(p, "./")
		if p == "" || p == "." {
			return pkgs
		}
		cleaned = append(cleaned, p)
	}
	if len(cleaned) == 0 {
		return pkgs
	}
	var out []*lint.Package
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, modPath), "/")
		for _, p := range cleaned {
			if rel == p || strings.HasPrefix(rel, p+"/") {
				out = append(out, pkg)
				break
			}
		}
	}
	return out
}
