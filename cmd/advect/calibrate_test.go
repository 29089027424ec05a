package main

import (
	"testing"
	"time"
)

// stepper runs n steps and reports their wall time, as a calibration
// probe does.
type stepper = func(n int) (time.Duration, error)

// fakeStepper simulates a deterministic per-step cost without sleeping.
func fakeStepper(perStep time.Duration) stepper {
	return func(n int) (time.Duration, error) { return perStep * time.Duration(n), nil }
}

func measured(t *testing.T, step stepper, n int) time.Duration {
	t.Helper()
	d, err := step(n)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCalibrateStepsReachesTarget(t *testing.T) {
	for _, perStep := range []time.Duration{
		10 * time.Microsecond, time.Millisecond, 50 * time.Millisecond, 2 * time.Second,
	} {
		step := fakeStepper(perStep)
		n, err := calibrateSteps(step, 5*time.Second)
		if err != nil {
			t.Fatalf("perStep %v: %v", perStep, err)
		}
		if got := measured(t, step, n); got < 5*time.Second {
			t.Fatalf("perStep %v: %d steps measure only %v", perStep, n, got)
		}
		// Headroom should be modest, not 10x.
		if got := measured(t, step, n); got > 30*time.Second {
			t.Fatalf("perStep %v: %d steps over-measure at %v", perStep, n, got)
		}
	}
}

func TestCalibrateStepsDefaultTarget(t *testing.T) {
	step := fakeStepper(100 * time.Millisecond)
	n, err := calibrateSteps(step, 0)
	if err != nil {
		t.Fatal(err)
	}
	if measured(t, step, n) < defaultTarget {
		t.Fatal("default target not met")
	}
}

func TestCalibrateStepsTooFast(t *testing.T) {
	// A step that reports zero time can never calibrate.
	zero := func(n int) (time.Duration, error) { return 0, nil }
	if _, err := calibrateSteps(zero, time.Second); err == nil {
		t.Fatal("uncalibratable stepper accepted")
	}
}
