package measure

import (
	"testing"
	"time"
)

// fakeStepper simulates a deterministic per-step cost without sleeping.
func fakeStepper(perStep time.Duration) Stepper {
	return func(n int) time.Duration { return perStep * time.Duration(n) }
}

func TestCalibrateStepsReachesTarget(t *testing.T) {
	for _, perStep := range []time.Duration{
		10 * time.Microsecond, time.Millisecond, 50 * time.Millisecond, 2 * time.Second,
	} {
		step := fakeStepper(perStep)
		n, err := CalibrateSteps(step, 5*time.Second)
		if err != nil {
			t.Fatalf("perStep %v: %v", perStep, err)
		}
		if got := step(n); got < 5*time.Second {
			t.Fatalf("perStep %v: %d steps measure only %v", perStep, n, got)
		}
		// Headroom should be modest, not 10x.
		if got := step(n); got > 30*time.Second {
			t.Fatalf("perStep %v: %d steps over-measure at %v", perStep, n, got)
		}
	}
}

func TestCalibrateStepsDefaultTarget(t *testing.T) {
	n, err := CalibrateSteps(fakeStepper(100*time.Millisecond), 0)
	if err != nil {
		t.Fatal(err)
	}
	if fakeStepper(100*time.Millisecond)(n) < DefaultTarget {
		t.Fatal("default target not met")
	}
}

func TestCalibrateStepsTooFast(t *testing.T) {
	// A step that reports zero time can never calibrate.
	if _, err := CalibrateSteps(func(n int) time.Duration { return 0 }, time.Second); err == nil {
		t.Fatal("uncalibratable stepper accepted")
	}
}
