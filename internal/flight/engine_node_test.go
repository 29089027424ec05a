package flight_test

import (
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/service"
)

// The windowed rules keep no series of their own, so their tests drive the
// engine the way a node does: observations go into a service.Telemetry at
// injected times, and each sweep hands the engine the exec and shed entries
// of the /v1/stats document of that instant.

func at(sec int) time.Time {
	return time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC).Add(time.Duration(sec) * time.Second)
}

// node is an engine over a node's telemetry, collecting what fires.
type node struct {
	tele  *service.Telemetry
	e     *flight.Engine
	fired []flight.Anomaly
}

func newNode() *node {
	n := &node{tele: service.NewTelemetry(at(0), time.Minute, 16), e: flight.NewEngine(flight.Rules{}, flight.NewRecorder(0))}
	n.e.Notify(func(a flight.Anomaly) { n.fired = append(n.fired, a) })
	return n
}

// sweep judges the stats document of now and returns it.
func (n *node) sweep(now time.Time) service.TelemetryStats {
	st := n.tele.Stats(now, service.QueueGauges{}, service.WorkerGauges{})
	n.e.Sweep(now, st.Exec, st.Shed)
	return st
}

func TestEngineLatencySpike(t *testing.T) {
	n := newNode()

	// Build a fast baseline deep enough that the slow runs joining the
	// lifetime mean can't drag the threshold up past their own p99.
	for i := 0; i < 500; i++ {
		n.tele.RecordExec(at(i/100), service.TypeSimulate, time.Millisecond)
	}
	n.sweep(at(5))
	if len(n.fired) != 0 {
		t.Fatalf("fired on a healthy baseline")
	}
	for i := 0; i < 10; i++ {
		n.tele.RecordExec(at(30+i), service.TypeSimulate, 2*time.Second)
	}
	st := n.sweep(at(40))
	if len(n.fired) != 1 || n.fired[0].Rule != flight.RuleLatencySpike {
		t.Fatalf("fired = %+v, want one latency-spike", n.fired)
	}
	a, exec := n.fired[0], st.Exec[service.TypeSimulate]
	if a.Kind != service.TypeSimulate {
		t.Errorf("Kind = %q", a.Kind)
	}
	// The alarm's numbers are the operator's numbers: the p99 and the
	// lifetime mean /v1/stats shows for the same instant.
	if a.Value != exec.P99 || a.Bound != 8*exec.TotalSum/float64(exec.TotalCount) {
		t.Errorf("value/bound = %g/%g, want the stats document's p99 %g and 8 × its lifetime mean %g",
			a.Value, a.Bound, exec.P99, exec.TotalSum/float64(exec.TotalCount))
	}

	// Once the slow runs age out of the window the rule is quiet again,
	// cooldown or not: the baseline is lifetime, the evidence is not.
	n.sweep(at(200))
	if len(n.fired) != 1 {
		t.Fatalf("fired on an empty window: %+v", n.fired)
	}
}

func TestEngineShedBurstAndCooldown(t *testing.T) {
	n := newNode()

	// Sheds of every type land in the one shed window.
	for i := 0; i < 9; i++ {
		n.tele.Count(at(1), service.Types()[i%len(service.Types())], "rejected")
	}
	n.sweep(at(2))
	if len(n.fired) != 0 {
		t.Fatalf("fired below the burst bound")
	}
	n.tele.Count(at(2), service.TypeSimulate, "rejected")
	st := n.sweep(at(3))
	if len(n.fired) != 1 || n.fired[0].Rule != flight.RuleShedBurst {
		t.Fatalf("fired = %+v, want one shed-burst", n.fired)
	}
	if n.fired[0].Value != float64(st.Shed.Count) || st.Shed.Count != 10 {
		t.Errorf("value = %g, want the stats document's shed count %d (10)", n.fired[0].Value, st.Shed.Count)
	}

	// Still inside the cooldown: sweeping again must not refire.
	n.sweep(at(10))
	if len(n.fired) != 1 {
		t.Fatalf("refired inside the cooldown: %d", len(n.fired))
	}
	// Past the cooldown, the still-hot window fires again.
	n.sweep(at(40))
	if len(n.fired) != 2 {
		t.Fatalf("did not refire after the cooldown: %d", len(n.fired))
	}
	// Other outcomes are not sheds.
	if st.Shed.TotalCount != 10 {
		t.Errorf("shed total = %d, want 10", st.Shed.TotalCount)
	}
	if st.Shed.WindowSec != 60 || st.Shed.PerSec != 10.0/60 || st.Shed.Mean != 1 {
		t.Errorf("shed window %+v, want 60 s, 10/60 per second, mean 1", st.Shed)
	}
	// Once the window has rolled past every shed, the lifetime total stays.
	if st := n.sweep(at(200)); st.Shed.Count != 0 || st.Shed.PerSec != 0 || st.Shed.TotalCount != 10 {
		t.Errorf("shed window after it rolled %+v, want count 0, 0 per second, total 10", st.Shed)
	}
}
