// Package lint is the project's static-analysis framework: a stdlib-only
// analogue of go/analysis (go/parser + go/ast + go/types + go/importer,
// no x/tools) that loads every package of the module, runs a registry of
// analyzers encoding project invariants — context threading, lock-held
// blocking and goroutine lifecycles: the bug classes no test in the tree
// catches — and reports findings as file:line:col: [analyzer] message
// diagnostics. An analyzer inspects one type-checked package at a time.
//
// One directive comment steers the analyzers:
//
//	//advect:nolint <analyzer> <reason>
//	    on (or immediately above) a flagged line suppresses that one
//	    analyzer's diagnostic. The reason is mandatory — an escape hatch
//	    without an audit trail is itself a finding — and naming an
//	    analyzer the registry does not know is flagged too. The block
//	    form "/* advect:nolint <analyzer> <reason> */" works in the same
//	    positions, and one comment may carry several directives back to
//	    back when one line trips more than one analyzer.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant checker. Run inspects a single
// type-checked package and reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (package, analyzer) pairing through a Run call.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// nolintDirective is one parsed //advect:nolint comment.
type nolintDirective struct {
	pos      token.Pos
	line     int    // line the directive suppresses findings on (its own)
	analyzer string // "" when malformed
	reason   string
}

const nolintMarker = "advect:nolint"

// directiveBody extracts the "advect:nolint ..." payload of a comment, in
// either the line form "//advect:nolint ..." or the block form
// "/* advect:nolint ... */". Comments that merely mention the marker in
// prose (doc comments, want expectations) don't start with it after the
// comment opener and are ignored.
func directiveBody(text string) (string, bool) {
	if rest, ok := strings.CutPrefix(text, "//"); ok {
		rest = strings.TrimSpace(rest)
		if strings.HasPrefix(rest, nolintMarker) {
			return rest, true
		}
		return "", false
	}
	if inner, ok := strings.CutPrefix(text, "/*"); ok {
		inner = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(inner), "*/"))
		if strings.HasPrefix(inner, nolintMarker) {
			return inner, true
		}
	}
	return "", false
}

// parseNolints extracts every advect:nolint directive from the package.
// A directive suppresses findings on its own source line, so it can sit
// at the end of the flagged line (line or block comment form) or on a
// line of its own immediately above. One comment may chain several
// directives — "//advect:nolint a why advect:nolint b why" — when a line
// trips more than one analyzer.
func parseNolints(pkg *Package) []nolintDirective {
	var out []nolintDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := directiveBody(strings.TrimSpace(c.Text))
				if !ok {
					continue
				}
				// A reason never embeds "//": anything after one is a
				// trailing comment (the fixtures' "// want" markers).
				if i := strings.Index(body, "//"); i >= 0 {
					body = body[:i]
				}
				pos := c.Pos()
				line := pkg.Fset.Position(pos).Line
				// Each advect:nolint occurrence starts one directive; its
				// reason runs to the next occurrence or the comment's end.
				// body begins with the marker, so the first split element
				// is always empty and dropped.
				for _, chunk := range strings.Split(body, nolintMarker)[1:] {
					chunk = strings.TrimSpace(chunk)
					d := nolintDirective{pos: pos, line: line}
					fields := strings.Fields(chunk)
					if len(fields) > 0 {
						d.analyzer = fields[0]
						d.reason = strings.TrimSpace(strings.TrimPrefix(chunk, fields[0]))
					}
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// suppressKey identifies one (file, line, analyzer) suppression target.
type suppressKey struct {
	file     string
	line     int
	analyzer string
}

// Run executes every analyzer over every package, applies the nolint
// directives, validates the directives themselves, and returns the
// surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &raw}
			a.Run(pass)
		}
	}

	// A directive covers its own line and the line below it, so both
	//   stmt // advect:nolint a r
	// and
	//   // advect:nolint a r
	//   stmt
	// work. Malformed or unknown directives become findings.
	suppress := map[suppressKey]bool{}
	for _, pkg := range pkgs {
		for _, d := range parseNolints(pkg) {
			pos := pkg.Fset.Position(d.pos)
			switch {
			case d.analyzer == "":
				raw = append(raw, Diagnostic{
					Pos: pos, Analyzer: "nolint",
					Message: "malformed //advect:nolint: want \"//advect:nolint <analyzer> <reason>\"",
				})
			case !known[d.analyzer] && d.analyzer != "nolint":
				raw = append(raw, Diagnostic{
					Pos: pos, Analyzer: "nolint",
					Message: fmt.Sprintf("//advect:nolint names unknown analyzer %q", d.analyzer),
				})
			case d.reason == "":
				raw = append(raw, Diagnostic{
					Pos: pos, Analyzer: "nolint",
					Message: fmt.Sprintf("//advect:nolint %s is missing its reason: every suppression must say why", d.analyzer),
				})
			default:
				suppress[suppressKey{pos.Filename, d.line, d.analyzer}] = true
				suppress[suppressKey{pos.Filename, d.line + 1, d.analyzer}] = true
			}
		}
	}
	var diags []Diagnostic
	for _, d := range raw {
		if suppress[suppressKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		diags = append(diags, d)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
