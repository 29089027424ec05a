package service

import (
	"bytes"
	"net/http"
	"runtime"
	rtdebug "runtime/debug"
	"runtime/pprof"
	"time"

	"repro/internal/flight"
)

// BundleDoc is the GET /v1/debug/bundle document: everything one node can
// say about its recent past in a single JSON payload — the live flight
// ring plus any anomaly-frozen snapshots, the anomaly history, rolling
// stats, cumulative metrics, goroutine and heap profiles, and build
// identity. A gateway fans this endpoint out across the cluster and
// merges the node-stamped bundles into one postmortem.
type BundleDoc struct {
	Now  time.Time `json:"now"`
	Node string    `json:"node,omitempty"`
	// Flight is the live ring at collection time; Frozen are the
	// snapshots anomaly firings pinned, oldest first.
	Flight    flight.Snapshot     `json:"flight"`
	Frozen    []flight.Snapshot   `json:"frozen,omitempty"`
	Anomalies flight.AnomalyStats `json:"anomalies"`
	Stats     TelemetryStats      `json:"stats"`
	Metrics   Snapshot            `json:"metrics"`
	// Profiles holds pprof text dumps (debug=1), keyed by profile name.
	Profiles map[string]string `json:"profiles,omitempty"`
	Build    BuildDoc          `json:"build"`
}

// BuildDoc identifies the binary that produced a bundle.
type BuildDoc struct {
	GoVersion  string `json:"go_version"`
	Module     string `json:"module,omitempty"`
	Revision   string `json:"revision,omitempty"`
	Modified   bool   `json:"modified,omitempty"`
	Goroutines int    `json:"goroutines"`
}

// bundleProfiles are the pprof profiles embedded in a bundle: enough to
// see what the process was doing (goroutines) and holding (heap) without
// the full binary-format dumps.
var bundleProfiles = []string{"goroutine", "heap"}

// DebugBundle assembles the node's postmortem bundle at this instant.
func (s *Server) DebugBundle() BundleDoc {
	now := time.Now()
	doc := BundleDoc{
		Now:       now,
		Node:      s.cfg.NodeID,
		Flight:    s.flight.Snapshot(now),
		Frozen:    s.flight.Frozen(),
		Anomalies: s.engine.Anomalies(),
		Stats:     s.StatsSnapshot(),
		Metrics:   s.MetricsSnapshot(),
		Profiles:  make(map[string]string, len(bundleProfiles)),
		Build: BuildDoc{
			GoVersion:  runtime.Version(),
			Goroutines: runtime.NumGoroutine(),
		},
	}
	if info, ok := rtdebug.ReadBuildInfo(); ok {
		doc.Build.Module = info.Main.Path
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				doc.Build.Revision = kv.Value
			case "vcs.modified":
				doc.Build.Modified = kv.Value == "true"
			}
		}
	}
	var buf bytes.Buffer
	for _, name := range bundleProfiles {
		p := pprof.Lookup(name)
		if p == nil {
			continue
		}
		buf.Reset()
		if err := p.WriteTo(&buf, 1); err != nil {
			continue
		}
		doc.Profiles[name] = buf.String()
	}
	return doc
}

// handleBundle serves the postmortem bundle. Always 200: a node that can
// answer at all has a bundle, even if flight is disabled (empty ring, no
// anomalies).
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.DebugBundle())
}
