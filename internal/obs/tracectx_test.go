package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Add(RankGateway, -1, PhaseGWRoute, "n1", 0.001, 0.002)
	r.Add(RankGateway, -1, PhaseGWSubmit, "n1", 0.002, 0.004)

	c := r.TraceContext("abc123")
	if c == nil {
		t.Fatal("enabled recorder returned nil context")
	}
	if c.TraceID != "abc123" || c.EpochNS != r.epoch.UnixNano() || len(c.Spans) != 2 {
		t.Fatalf("bad context: %+v", c)
	}

	got, err := ParseTraceContext(c.Encode())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got.TraceID != c.TraceID || got.EpochNS != c.EpochNS || len(got.Spans) != 2 {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, c)
	}
	if got.Spans[1].Phase != PhaseGWSubmit || got.Spans[1].Label != "n1" {
		t.Fatalf("span lost in round trip: %+v", got.Spans[1])
	}
}

func TestTraceContextNilAndDisabled(t *testing.T) {
	var r *Recorder
	if c := r.TraceContext("id"); c != nil {
		t.Fatalf("disabled recorder minted context %+v", c)
	}
	var c *TraceContext
	if v := c.Encode(); v != "" {
		t.Fatalf("nil context encoded to %q", v)
	}
	r.Import(nil) // must not panic
	r.ImportRemote("n1", nil)
	rec := NewRecorder()
	rec.Import(nil)
	rec.ImportRemote("n1", nil)
	if rec.Len() != 0 {
		t.Fatalf("nil imports recorded %d spans", rec.Len())
	}
}

func TestParseTraceContextMalformed(t *testing.T) {
	if c, err := ParseTraceContext(""); c != nil || err != nil {
		t.Fatalf("empty header: got (%v, %v), want (nil, nil)", c, err)
	}
	cases := map[string]string{
		"not base64":    "%%%not-base64%%%",
		"not json":      "bm90IGpzb24",
		"missing id":    (&TraceContext{EpochNS: 1}).Encode(),
		"missing epoch": (&TraceContext{TraceID: "x"}).Encode(),
		"oversized":     strings.Repeat("A", maxTraceHeader+1),
	}
	for name, v := range cases {
		if _, err := ParseTraceContext(v); err == nil {
			t.Errorf("%s: parse accepted malformed value", name)
		}
	}
}

func TestImportRebasesAndAnnotatesHandoff(t *testing.T) {
	local := NewRecorder()
	// A sender whose epoch is 50ms before ours: its span at [10ms, 20ms]
	// lands at [-40ms, -30ms] on our timeline.
	c := &TraceContext{
		TraceID: "t1",
		EpochNS: local.epoch.Add(-50 * time.Millisecond).UnixNano(),
		Spans: []Span{
			{Rank: RankGateway, Step: -1, Phase: PhaseGWRoute, Label: "n1", Start: 0.010, End: 0.020},
			{Rank: RankGateway, Step: -1, Phase: PhaseGWSubmit, Label: "n1", Start: 0.020, End: 0.030},
			{Rank: RankGateway, Step: -1, Phase: PhaseGWRetry, Start: 0.040, End: 0.030}, // end < start: dropped
		},
	}
	local.Import(c)
	spans := local.Spans()
	if len(spans) != 3 { // route + submit + synthetic handoff
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	byPhase := map[Phase]Span{}
	for _, s := range spans {
		byPhase[s.Phase] = s
	}
	route := byPhase[PhaseGWRoute]
	if !approx(route.Start, -0.040) || !approx(route.End, -0.030) {
		t.Fatalf("route span not rebased: %+v", route)
	}
	hand, ok := byPhase[PhaseGWHandoff]
	if !ok {
		t.Fatal("no handoff span recorded")
	}
	if !approx(hand.Start, -0.020) || hand.End != 0 {
		t.Fatalf("handoff should bridge last sender instant to epoch: %+v", hand)
	}
	if !strings.HasPrefix(hand.Label, "offset ") {
		t.Fatalf("handoff label %q lacks clock-offset annotation", hand.Label)
	}
}

func TestImportSenderClockAhead(t *testing.T) {
	local := NewRecorder()
	c := &TraceContext{
		TraceID: "t1",
		EpochNS: local.epoch.Add(20 * time.Millisecond).UnixNano(),
		Spans:   []Span{{Rank: RankGateway, Phase: PhaseGWRoute, Start: 0, End: 0.005}},
	}
	local.Import(c)
	for _, s := range local.Spans() {
		if s.Phase == PhaseGWHandoff {
			if s.Start != 0 || s.End != 0 {
				t.Fatalf("skewed handoff should clamp to epoch: %+v", s)
			}
			return
		}
	}
	t.Fatal("no handoff span recorded")
}

func TestImportRemoteFiltersAndStampsNode(t *testing.T) {
	gw := NewRecorder()
	remote := &TraceContext{
		TraceID: "t1",
		EpochNS: gw.epoch.Add(30 * time.Millisecond).UnixNano(),
		Spans: []Span{
			{Rank: RankService, Step: -1, Phase: PhaseWorkerExec, Start: 0.001, End: 0.010},
			{Rank: 0, Step: 0, Phase: PhaseKernel, Start: 1.5, End: 2.5},              // sim base: unshifted
			{Rank: RankGateway, Step: -1, Phase: PhaseGWRoute, Start: -0.01, End: 0},  // sender's gateway copy: skipped
			{Rank: 1, Step: 0, Phase: PhaseInterior, Node: "other", Start: 0, End: 1}, // already foreign: skipped
		},
	}
	gw.ImportRemote("n1", remote)
	spans := gw.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	for _, s := range spans {
		if s.Node != "n1" {
			t.Fatalf("span not stamped with node: %+v", s)
		}
	}
	var exec, kern Span
	for _, s := range spans {
		switch s.Phase {
		case PhaseWorkerExec:
			exec = s
		case PhaseKernel:
			kern = s
		}
	}
	if !approx(exec.Start, 0.031) || !approx(exec.End, 0.040) {
		t.Fatalf("wall span not rebased: %+v", exec)
	}
	if kern.Start != 1.5 || kern.End != 2.5 {
		t.Fatalf("sim span must keep virtual time: %+v", kern)
	}
}

func TestChromeTraceNodeAttribution(t *testing.T) {
	spans := []Span{
		{Rank: RankGateway, Step: -1, Phase: PhaseGWRoute, Label: "n1", Start: -0.02, End: -0.01},
		{Rank: RankService, Step: -1, Phase: PhaseWorkerExec, Start: 0, End: 0.05},
		{Rank: 0, Step: 0, Phase: PhaseInterior, Start: 0.01, End: 0.02},
		{Rank: RankService, Step: -1, Phase: PhaseWorkerExec, Node: "n1", Start: -0.015, End: -0.012},
		{Rank: 0, Step: 0, Phase: PhaseInterior, Node: "n1", Start: -0.014, End: -0.013},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{} // process name -> pid
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			names[ev.Args["name"].(string)] = ev.PID
		}
	}
	want := []string{"gateway", "service", "rank 0", "n1 service", "n1 rank 0"}
	for _, n := range want {
		if _, ok := names[n]; !ok {
			t.Errorf("missing process %q (have %v)", n, names)
		}
	}
	if names["gateway"] != RankGateway || names["service"] != RankService || names["rank 0"] != 0 {
		t.Errorf("local processes must keep pid==rank: %v", names)
	}
	if names["n1 service"] == names["service"] || names["n1 rank 0"] == names["rank 0"] {
		t.Errorf("node-attributed processes must not collide with local pids: %v", names)
	}
}

func approx(got, want float64) bool {
	d := got - want
	return d < 1e-9 && d > -1e-9
}

func TestEncodeShedsOversizedSpanLog(t *testing.T) {
	// A dead-node harvest of a long run can hold far more spans than a
	// receiver accepts on the header; Encode must shed down to the bound,
	// keeping every gateway span and the oldest node spans.
	c := &TraceContext{TraceID: "big", EpochNS: 1}
	c.Spans = append(c.Spans, Span{Rank: RankGateway, Phase: PhaseGWRoute, Label: "n1", Start: 0, End: 0.001})
	for i := 0; i < 20000; i++ {
		c.Spans = append(c.Spans, Span{
			Rank: i % 2, Step: i / 2, Phase: PhaseInterior,
			Node: "n1", Start: float64(i), End: float64(i) + 0.5,
		})
	}
	c.Spans = append(c.Spans, Span{Rank: RankGateway, Phase: PhaseGWResubmit, Label: "n1", Start: 1, End: 2})

	v := c.Encode()
	if len(v) > maxTraceHeader {
		t.Fatalf("encoded value %d bytes exceeds the %d accept bound", len(v), maxTraceHeader)
	}
	got, err := ParseTraceContext(v)
	if err != nil {
		t.Fatalf("bounded encoding does not parse: %v", err)
	}
	if got.TraceID != "big" || got.EpochNS != 1 {
		t.Fatalf("identity lost in shedding: %+v", got)
	}
	var gw, node int
	for _, s := range got.Spans {
		if s.Rank == RankGateway {
			gw++
		} else {
			node++
		}
	}
	if gw != 2 {
		t.Errorf("want both gateway spans to survive shedding, got %d", gw)
	}
	if node == 0 || node >= 20000 {
		t.Errorf("want a proper prefix of node spans, got %d of 20000", node)
	}
	// The survivors are the oldest node spans: the prefix that carries the
	// admission and first-step phases.
	maxStep := -1
	for _, s := range got.Spans {
		if s.Rank != RankGateway && s.Step > maxStep {
			maxStep = s.Step
		}
	}
	if want := (node - 1) / 2; maxStep != want {
		t.Errorf("shedding kept step up to %d, want the contiguous oldest prefix ending at %d", maxStep, want)
	}
}

func TestEncodeSmallLogUnchanged(t *testing.T) {
	r := NewRecorder()
	r.Add(RankGateway, -1, PhaseGWRoute, "n1", 0, 0.001)
	c := r.TraceContext("small")
	got, err := ParseTraceContext(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 1 {
		t.Fatalf("small log altered by bounding: %+v", got.Spans)
	}
}
