package service

import (
	"math"
	"time"
)

// warmInts is the fixed order of the integer parameters the sweep detector
// watches (Nu follows them as the last field); warmVector's base is the
// request's non-numeric identity. Together they make "the same request
// except one stepping number" land on one track.
func warmInts(sr *SimulateRequest) [9]*int {
	return [9]*int{&sr.N, &sr.Steps, &sr.Tasks, &sr.Threads, &sr.BlockX, &sr.BlockY,
		&sr.BoxThickness, &sr.HaloWidth, &sr.TasksPerGPU}
}

func warmVector(sr *SimulateRequest) (string, []float64) {
	base := "sim|" + sr.Kind + "|" + sr.GPU
	if sr.Verify {
		base += "|v"
	}
	if sr.Trace {
		base += "|t"
	}
	ints := warmInts(sr)
	fields := make([]float64, 0, len(ints)+1)
	for _, p := range ints {
		fields = append(fields, float64(*p))
	}
	return base, append(fields, sr.Nu)
}

// applyWarmField writes a predicted value back into its request field,
// reporting false for predictions that cannot name a real request (a
// negative value, or a fractional one in an integer field).
func applyWarmField(sr *SimulateRequest, field int, v float64) bool {
	ints := warmInts(sr)
	switch {
	case v < 0 || field < 0 || field > len(ints):
		return false
	case field == len(ints):
		sr.Nu = v
	case v != math.Trunc(v) || v > math.MaxInt32:
		return false
	default:
		*ints[field] = int(v)
	}
	return true
}

// warmFromSubmit feeds one interactive simulate submission to the sweep
// detector and pre-executes whatever it predicts at background priority.
// Called after the submission has been admitted (never for background
// jobs, so warming cannot feed back into itself).
func (s *Server) warmFromSubmit(req Request) {
	if s.warmer == nil || req.Type != TypeSimulate || req.Simulate == nil {
		return
	}
	base, fields := warmVector(req.Simulate)
	for _, p := range s.warmer.Observe(base, fields) {
		next := *req.Simulate
		if !applyWarmField(&next, p.Field, p.Value) {
			s.warmer.NoteShed()
			continue
		}
		s.submitBackground(Request{Type: TypeSimulate, Simulate: &next})
	}
}

// submitBackground admits a speculative pre-execution on the queue's
// background lane. It is deliberately eager to give up — validation
// failure, draining, already cached, already in flight, foreground
// traffic waiting, or a full lane all shed the prediction (counted by the
// warmer) — because speculation must never displace interactive work.
func (s *Server) submitBackground(req Request) {
	if req.Validate(s.cfg.Limits) != nil || s.draining.Load() {
		s.warmer.NoteShed()
		return
	}
	key := req.CacheKey()
	if _, hit := s.cache.Peek(key); hit || !s.claimWarm(key) {
		s.warmer.NoteShed()
		return
	}
	now := time.Now()
	j := newJob(s.store.NewID(), req, s.baseCtx, now)
	j.background = true
	if !s.queue.TryPushBackground(j) {
		s.releaseWarm(key)
		s.warmer.NoteShed()
		return
	}
	s.store.Add(j)
	s.tele.Count(now, req.Type, outcomeSubmitted)
	s.log.Info("job submitted", jobArgs(j, "background", true)...)
	s.publishJob(j)
}

// claimWarm marks a cache key as having a background pre-execution in
// flight; a second prediction of the same point is shed instead of queued
// twice.
func (s *Server) claimWarm(key string) bool {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	if s.warmInflight == nil {
		s.warmInflight = make(map[string]struct{})
	}
	if _, ok := s.warmInflight[key]; ok {
		return false
	}
	s.warmInflight[key] = struct{}{}
	return true
}

func (s *Server) releaseWarm(key string) {
	s.warmMu.Lock()
	delete(s.warmInflight, key)
	s.warmMu.Unlock()
}
