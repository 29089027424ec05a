package telemetry

import (
	"fmt"
	"strconv"
	"strings"
)

// PromWriter renders metric families in the Prometheus text exposition
// format, every series under one prefix ("advectd", "advectgw"). It is the
// one place the HELP/TYPE preamble and the sample-line syntax are written;
// the node, the gateway and the process-health block all go through it.
type PromWriter struct {
	b      *strings.Builder
	prefix string
}

// NewPromWriter appends to b, naming every series prefix_name.
func NewPromWriter(b *strings.Builder, prefix string) PromWriter {
	return PromWriter{b: b, prefix: prefix}
}

// Family opens a metric family: its HELP and TYPE lines. The samples that
// follow it carry the same name (plus _bucket/_sum/_count for a histogram).
func (w PromWriter) Family(name, typ, help string) {
	fmt.Fprintf(w.b, "# HELP %s_%s %s\n# TYPE %s_%s %s\n", w.prefix, name, help, w.prefix, name, typ)
}

// Float writes one float-valued sample. labels are name, value pairs; the
// values are quoted and escaped.
func (w PromWriter) Float(name string, v float64, labels ...string) {
	w.sample(name, strconv.FormatFloat(v, 'g', -1, 64), labels)
}

// Uint writes one integer-valued sample.
func (w PromWriter) Uint(name string, v uint64, labels ...string) {
	w.sample(name, strconv.FormatUint(v, 10), labels)
}

func (w PromWriter) sample(name, value string, labels []string) {
	fmt.Fprintf(w.b, "%s_%s", w.prefix, name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(w.b, "%s%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		w.b.WriteByte('}')
	}
	fmt.Fprintf(w.b, " %s\n", value)
}

// Gauge writes a single-sample gauge family.
func (w PromWriter) Gauge(name, help string, v float64) {
	w.Family(name, "gauge", help)
	w.Float(name, v)
}

// Counter writes a single-sample counter family.
func (w PromWriter) Counter(name, help string, v uint64) {
	w.Family(name, "counter", help)
	w.Uint(name, v)
}
