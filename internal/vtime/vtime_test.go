package vtime

import (
	"testing"
	"testing/quick"
)

func TestResourceSerializes(t *testing.T) {
	r := NewResource("bus")
	s1, e1 := r.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first acquire (%v,%v)", s1, e1)
	}
	// Requested while busy: starts when free.
	s2, e2 := r.Acquire(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second acquire (%v,%v), want (10,20)", s2, e2)
	}
	// Requested after idle gap: starts at ready time.
	s3, e3 := r.Acquire(100, 5)
	if s3 != 100 || e3 != 105 {
		t.Fatalf("third acquire (%v,%v), want (100,105)", s3, e3)
	}
	// Asked for the past: starts when the third operation ends.
	if s4, _ := r.Acquire(0, 0); s4 != 105 {
		t.Fatalf("fourth acquire starts at %v, want 105", s4)
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 7)
	r.Reset()
	if start, _ := r.Acquire(0, 1); start != 0 {
		t.Fatalf("Reset incomplete: next operation starts at %v", start)
	}
	if r.Name() != "x" {
		t.Fatal("name lost")
	}
}

func TestResourceNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration accepted")
		}
	}()
	NewResource("x").Acquire(0, -1)
}

func TestResourceNonDecreasingProperty(t *testing.T) {
	prop := func(reqs []struct {
		Ready uint16
		Dur   uint16
	}) bool {
		r := NewResource("p")
		var lastEnd Time
		for _, q := range reqs {
			start, end := r.Acquire(Time(q.Ready), Time(q.Dur))
			if start < Time(q.Ready) || start < lastEnd || end != start+Time(q.Dur) {
				return false
			}
			lastEnd = end
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMax(t *testing.T) {
	if Max(1, 2) != 2 || Max(3, 2) != 3 {
		t.Fatal("Max broken")
	}
	if Time(2.5).Seconds() != 2.5 {
		t.Fatal("Seconds broken")
	}
}
