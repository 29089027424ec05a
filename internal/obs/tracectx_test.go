package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestTraceContextRoundTrip: the span log a node serves on /spans decodes
// to what the node recorded.
func TestTraceContextRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Add(RankService, -1, PhaseWorkerExec, "", 0.001, 0.002)
	r.Add(0, 3, PhaseKernel, "k", 1.5, 2.5)
	c := r.TraceContext("abc123")
	if c == nil || c.TraceID != "abc123" || c.EpochNS != r.epoch.UnixNano() || len(c.Spans) != 2 {
		t.Fatalf("bad context: %+v", c)
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var got TraceContext
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, c) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", &got, c)
	}
}

func TestTraceContextNilAndDisabled(t *testing.T) {
	var r *Recorder
	if c := r.TraceContext("id"); c != nil {
		t.Fatalf("disabled recorder minted context %+v", c)
	}
	if s := r.Joined("n1", &TraceContext{}); s != nil {
		t.Fatalf("disabled recorder joined %d spans", len(s))
	}
	r.ImportRemote("n1", nil) // must not panic
	rec := NewRecorder()
	rec.ImportRemote("n1", nil)
	if rec.Len() != 0 {
		t.Fatalf("nil imports recorded %d spans", rec.Len())
	}
}

func TestValidTraceID(t *testing.T) {
	for i := 0; i < 8; i++ {
		if id := NewTraceID(); !ValidTraceID(id) {
			t.Fatalf("minted id %q is not valid", id)
		}
	}
	for _, id := range []string{
		"", "abc123", strings.Repeat("z", 32), strings.Repeat("a", 31),
		strings.Repeat("a", 64), "trace-rand-unavailable",
	} {
		if ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = true", id)
		}
	}
}

// gatewayRecorder is a gateway's recorder after routing one job: a route
// lookup and a dispatch, the last wall instant at 4ms.
func gatewayRecorder() *Recorder {
	r := NewRecorder()
	r.Add(RankGateway, -1, PhaseGWRoute, "n1", 0.001, 0.002)
	r.Add(RankGateway, -1, PhaseGWSubmit, "n1", 0.002, 0.004)
	return r
}

// ownerLog is an owner's span log whose epoch is skew after gw's.
func ownerLog(gw *Recorder, skew time.Duration) *TraceContext {
	return &TraceContext{
		TraceID: "t1",
		EpochNS: gw.epoch.Add(skew).UnixNano(),
		Spans: []Span{
			{Rank: RankService, Step: -1, Phase: PhaseWorkerExec, Start: 0.001, End: 0.010},
			{Rank: 0, Step: 0, Phase: PhaseKernel, Start: 1.5, End: 2.5},     // sim base: unshifted
			{Rank: 1, Step: 0, Phase: PhaseInterior, Start: 0.02, End: 0.01}, // inverted: dropped
		},
	}
}

func TestJoinedRebasesAndStampsOwnerSpans(t *testing.T) {
	gw := gatewayRecorder()
	spans := gw.Joined("n1", ownerLog(gw, 30*time.Millisecond))
	if len(spans) != 5 { // route + submit + handoff + exec + kernel
		t.Fatalf("got %d spans, want 5: %+v", len(spans), spans)
	}
	for _, s := range spans[:3] {
		if s.Rank != RankGateway || s.Node != "" {
			t.Errorf("gateway span out of place or stamped: %+v", s)
		}
	}
	exec, kern := spans[3], spans[4]
	if exec.Phase != PhaseWorkerExec || !approx(exec.Start, 0.031) || !approx(exec.End, 0.040) {
		t.Errorf("wall span not rebased onto the gateway epoch: %+v", exec)
	}
	if kern.Phase != PhaseKernel || kern.Start != 1.5 || kern.End != 2.5 {
		t.Errorf("sim span must keep virtual time: %+v", kern)
	}
	if exec.Node != "n1" || kern.Node != "n1" {
		t.Errorf("owner spans not stamped with the owner: %+v %+v", exec, kern)
	}
}

func TestJoinedHandoffBoundsAndLabel(t *testing.T) {
	gw := gatewayRecorder()
	hand := gw.Joined("n1", ownerLog(gw, 30*time.Millisecond))[2]
	if hand.Phase != PhaseGWHandoff || hand.Rank != RankGateway || hand.Step != -1 {
		t.Fatalf("third span is not the handoff: %+v", hand)
	}
	if !approx(hand.Start, 0.004) || !approx(hand.End, 0.030) {
		t.Errorf("handoff should run from the last gateway instant to the owner epoch: %+v", hand)
	}
	if hand.Label != "offset 30ms" {
		t.Errorf("handoff label %q, want %q", hand.Label, "offset 30ms")
	}
}

func TestJoinedOwnerClockBehind(t *testing.T) {
	gw := gatewayRecorder()
	spans := gw.Joined("n1", ownerLog(gw, -20*time.Millisecond))
	hand := spans[2]
	if !approx(hand.Start, -0.020) || !approx(hand.End, -0.020) {
		t.Errorf("handoff should collapse onto an owner epoch behind the gateway: %+v", hand)
	}
	if hand.Label != "offset -20ms" {
		t.Errorf("handoff label %q, want %q", hand.Label, "offset -20ms")
	}
	if exec := spans[3]; !approx(exec.Start, -0.019) {
		t.Errorf("owner span not rebased by the negative offset: %+v", exec)
	}
}

func TestJoinedLeavesRecorderUnchanged(t *testing.T) {
	gw := gatewayRecorder()
	before := gw.Spans()
	owner := ownerLog(gw, 30*time.Millisecond)
	first := gw.Joined("n1", owner)
	if !reflect.DeepEqual(gw.Spans(), before) {
		t.Fatalf("Joined modified the recorder: %+v, was %+v", gw.Spans(), before)
	}
	if again := gw.Joined("n1", owner); !reflect.DeepEqual(again, first) {
		t.Errorf("a second read differs:\n%+v\n%+v", again, first)
	}
	if owner.Spans[0].Node != "" || owner.Spans[0].Start != 0.001 {
		t.Errorf("Joined modified the owner's log: %+v", owner.Spans[0])
	}
}

func TestImportRemoteFiltersAndStampsNode(t *testing.T) {
	gw := gatewayRecorder()
	gw.ImportRemote("n1", ownerLog(gw, 30*time.Millisecond))
	var exec, kern Span
	for _, s := range gw.Spans() {
		switch s.Phase {
		case PhaseWorkerExec:
			exec = s
		case PhaseKernel:
			kern = s
		case PhaseInterior:
			t.Errorf("inverted span imported: %+v", s)
		}
	}
	if gw.Len() != 4 {
		t.Fatalf("got %d spans, want the 2 gateway spans and 2 imported", gw.Len())
	}
	if exec.Node != "n1" || kern.Node != "n1" {
		t.Fatalf("imported spans not stamped with the node: %+v %+v", exec, kern)
	}
	if !approx(exec.Start, 0.031) || !approx(exec.End, 0.040) {
		t.Errorf("wall span not rebased: %+v", exec)
	}
	if kern.Start != 1.5 || kern.End != 2.5 {
		t.Errorf("sim span must keep virtual time: %+v", kern)
	}
}

func TestJoinedKeepsWholeHarvest(t *testing.T) {
	// A dead owner's log of a long run, harvested before the resubmission,
	// reaches the joined trace whole.
	gw := gatewayRecorder()
	dead := &TraceContext{TraceID: "big", EpochNS: gw.epoch.Add(time.Millisecond).UnixNano()}
	const n = 20000
	for i := 0; i < n; i++ {
		dead.Spans = append(dead.Spans, Span{
			Rank: i % 2, Step: i / 2, Phase: PhaseInterior, Start: float64(i), End: float64(i) + 0.5,
		})
	}
	gw.ImportRemote("n1", dead)
	gw.Add(RankGateway, -1, PhaseGWResubmit, "n1", n, n+1)
	spans := gw.Joined("n2", ownerLog(gw, (n+2)*time.Second))
	steps := map[int]bool{}
	for _, s := range spans {
		if s.Node == "n1" {
			steps[s.Step*2+s.Rank] = true
		}
	}
	if len(steps) != n {
		t.Fatalf("joined trace holds %d of the %d harvested spans", len(steps), n)
	}
	if len(spans) != 3+n+1+2 {
		t.Errorf("got %d spans, want %d", len(spans), 3+n+1+2)
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
