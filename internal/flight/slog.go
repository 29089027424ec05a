package flight

import (
	"context"
	"log/slog"
	"strconv"
	"strings"
	"time"
)

// teeHandler forwards records to the wrapped handler unchanged while also
// writing a compact copy of every Info-and-above record into the flight
// recorder, so the ring retains recent log history even when the node's
// visible log level is higher.
type teeHandler struct {
	rec   *Recorder
	inner slog.Handler
	// attrs/groups accumulated by WithAttrs/WithGroup, pre-rendered so
	// Handle only concatenates.
	attrs string
	group string
	// jobID/traceID are lifted out of accumulated attrs (a session id is
	// the job id of its lines) so teed records stay correlated with traces.
	jobID   string
	traceID string
}

// TeeHandler wraps inner so every record at slog.LevelInfo or above is
// also retained in rec.
func TeeHandler(rec *Recorder, inner slog.Handler) slog.Handler {
	return &teeHandler{rec: rec, inner: inner}
}

func (h *teeHandler) Enabled(ctx context.Context, lvl slog.Level) bool {
	// The recorder always wants Info and above, regardless of the inner
	// handler's visible level.
	return lvl >= slog.LevelInfo || h.inner.Enabled(ctx, lvl)
}

func (h *teeHandler) Handle(ctx context.Context, r slog.Record) error {
	if r.Level >= slog.LevelInfo {
		fr := Record{
			Time:    r.Time,
			Kind:    KindLog,
			Level:   r.Level.String(),
			Msg:     r.Message,
			JobID:   h.jobID,
			TraceID: h.traceID,
		}
		if fr.Time.IsZero() {
			fr.Time = time.Now()
		}
		var b strings.Builder
		b.WriteString(h.attrs)
		r.Attrs(func(a slog.Attr) bool {
			appendAttr(&b, &fr, h.group, a)
			return true
		})
		fr.Attrs = b.String()
		h.rec.Add(fr)
	}
	if h.inner.Enabled(ctx, r.Level) {
		return h.inner.Handle(ctx, r)
	}
	return nil
}

func (h *teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	nh.inner = h.inner.WithAttrs(attrs)
	var b strings.Builder
	b.WriteString(h.attrs)
	fr := Record{JobID: h.jobID, TraceID: h.traceID}
	for _, a := range attrs {
		appendAttr(&b, &fr, h.group, a)
	}
	nh.attrs = b.String()
	nh.jobID = fr.JobID
	nh.traceID = fr.TraceID
	return &nh
}

func (h *teeHandler) WithGroup(name string) slog.Handler {
	nh := *h
	nh.inner = h.inner.WithGroup(name)
	if name != "" {
		if nh.group != "" {
			nh.group += "."
		}
		nh.group += name
	}
	return &nh
}

// appendAttr renders one attr as "key=value " into b, lifting job, session
// and trace ids into the record's dedicated fields instead.
func appendAttr(b *strings.Builder, fr *Record, group string, a slog.Attr) {
	a.Value = a.Value.Resolve()
	if a.Equal(slog.Attr{}) {
		return
	}
	key := a.Key
	if group != "" {
		key = group + "." + key
	}
	if a.Value.Kind() == slog.KindGroup {
		for _, ga := range a.Value.Group() {
			appendAttr(b, fr, key, ga)
		}
		return
	}
	val := renderValue(a.Value)
	switch key {
	case "job", "job_id", "session":
		if fr.JobID == "" {
			fr.JobID = val
		}
		return
	case "trace_id":
		if fr.TraceID == "" {
			fr.TraceID = val
		}
		return
	}
	if b.Len() > 0 {
		b.WriteByte(' ')
	}
	b.WriteString(key)
	b.WriteByte('=')
	b.WriteString(val)
}

func renderValue(v slog.Value) string {
	switch v.Kind() {
	case slog.KindString:
		return v.String()
	case slog.KindInt64:
		return strconv.FormatInt(v.Int64(), 10)
	case slog.KindUint64:
		return strconv.FormatUint(v.Uint64(), 10)
	case slog.KindBool:
		return strconv.FormatBool(v.Bool())
	case slog.KindFloat64:
		return strconv.FormatFloat(v.Float64(), 'g', -1, 64)
	case slog.KindDuration:
		return v.Duration().String()
	case slog.KindTime:
		return v.Time().Format(time.RFC3339Nano)
	}
	return v.String()
}
