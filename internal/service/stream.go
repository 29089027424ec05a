package service

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// handleStream is the live telemetry feed: job lifecycle events (event:
// job) interleaved with periodic rolling-stats snapshots (event: stats).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	ServeStream(w, r, s.hub, StreamInterval, HeartbeatInterval, "stats",
		func() any { return s.StatsSnapshot() })
}

// ServeStream serves one Server-Sent Events subscriber: every event
// published on the hub, interleaved with a snapshot document sent as an
// event called name — once at the start, then every interval (the default
// cadence, overridable per request with ?interval=, a Go duration clamped to
// at least 100ms). The stream ends when the client disconnects or the hub
// closes (the server is draining) — SSE clients reconnect by default, and
// on a drained instance the reconnect fails fast against the closed
// listener. A node streams its own stats this way, and a gateway its own
// state beside the members' events its hub relays.
func ServeStream(w http.ResponseWriter, r *http.Request, hub *telemetry.Hub,
	interval, heartbeat time.Duration, name string, snapshot func() any) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusInternalServerError, ErrorDoc{Error: "streaming unsupported"})
		return
	}
	if q := r.URL.Query().Get("interval"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, ErrorDoc{Error: "bad interval: " + err.Error()})
			return
		}
		interval = d
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}

	events, cancel := hub.Subscribe(64)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	writeSnapshot := func() bool {
		data, err := json.Marshal(snapshot())
		if err != nil {
			return false
		}
		return writeSSE(w, name, data)
	}
	if !writeSnapshot() {
		return
	}
	fl.Flush()

	tick := time.NewTicker(interval)
	defer tick.Stop()
	// Heartbeats are SSE comment lines (leading ':'), which clients must
	// ignore by spec — they keep idle connections alive through proxies
	// without ever surfacing as events.
	hb := time.NewTicker(heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-events:
			if !ok {
				return // hub closed: server draining
			}
			if !writeSSE(w, ev.Name, ev.Data) {
				return
			}
			fl.Flush()
		case <-tick.C:
			if !writeSnapshot() {
				return
			}
			fl.Flush()
		case <-hb.C:
			if _, err := w.Write([]byte(": heartbeat\n\n")); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeSSE emits one Server-Sent Event frame; data must be a single line
// (JSON documents without indentation are).
func writeSSE(w http.ResponseWriter, name string, data []byte) bool {
	if _, err := w.Write([]byte("event: " + name + "\ndata: ")); err != nil {
		return false
	}
	if _, err := w.Write(data); err != nil {
		return false
	}
	_, err := w.Write([]byte("\n\n"))
	return err == nil
}
