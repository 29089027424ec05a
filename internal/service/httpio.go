package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
)

// The request and response plumbing of the HTTP API. A cluster gateway
// serves the same surface as the node it fronts, so it uses these too: one
// route table shape, one JSON writer, one error envelope, one bounded
// strict decoder.

// Route is one entry of a tier's HTTP surface: the mux pattern, what the
// route does, and its handler. Each tier lists its routes once, in one
// slice, and that list is the description of its API.
type Route struct {
	Pattern string
	Doc     string
	Handler http.HandlerFunc
}

// Mount registers the routes on a fresh mux, adding net/http/pprof under
// /debug/pprof/ when profiling is enabled.
func Mount(routes []Route, enablePprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.Pattern, rt.Handler)
	}
	if enablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// ErrorDoc is the JSON error envelope. A node fills in Error alone; a
// gateway adds routing attribution: which shard (or shards, for a
// cluster-wide shed) it was talking to when the request failed, and how
// many dispatches it spent.
type ErrorDoc struct {
	Error    string   `json:"error"`
	Node     string   `json:"node,omitempty"`
	Nodes    []string `json:"nodes,omitempty"`
	Attempts int      `json:"attempts,omitempty"`
}

// WriteJSON serializes a response document compactly, the way stream
// frames are, so a node's body a gateway embeds as a json.RawMessage comes
// out as the node served it.
func WriteJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(doc)
}

// WriteRaw sends an already-encoded body: a cached result document, or a
// node's answer relayed by a gateway.
func WriteRaw(w http.ResponseWriter, status int, contentType string, body []byte) {
	if contentType != "" {
		w.Header().Set("Content-Type", contentType)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// WriteMetrics serves a /metrics document: the Prometheus text exposition
// by default, the JSON form on ?format=json or Accept: application/json.
func WriteMetrics(w http.ResponseWriter, r *http.Request, doc any, prometheus func() string) {
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		WriteJSON(w, http.StatusOK, doc)
		return
	}
	WriteRaw(w, http.StatusOK, "text/plain; version=0.0.4; charset=utf-8", []byte(prometheus()))
}

// MaxDocBytes bounds a JSON request document (job, fork, member). The
// largest legitimate one is a few hundred bytes.
const MaxDocBytes = 1 << 20

// SessionBodyBytes bounds a POST /v1/sessions body, the one request that
// may carry a field: a seeded create holds a base64 checkpoint of up to
// MaxN³ float64 values next to the request document.
func (l Limits) SessionBodyBytes() int64 {
	n := int64(l.MaxN)
	return n*n*n*8*4/3 + MaxDocBytes
}

// ReadBody reads a request body of at most limit bytes.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
}

// DecodeBody decodes a JSON request body of at most limit bytes into v,
// refusing fields v does not have. The caller answers a failure with
// WriteBadBody.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// WriteBadBody answers a request whose body ReadBody or DecodeBody
// refused: 413 when it ran past the limit, 400 otherwise.
func WriteBadBody(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteJSON(w, status, ErrorDoc{Error: "bad request body: " + err.Error()})
}
