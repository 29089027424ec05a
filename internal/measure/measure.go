// Package measure implements the paper's timing methodology (§II): "We
// vary the number of steps to ensure that each experiment runs long enough
// for accurate measurements, at least 5 seconds per measurement." Given a
// step function, CalibrateSteps estimates the per-step cost from short
// probe runs and returns the step count that makes the real measurement
// run at least the target duration.
package measure

import (
	"fmt"
	"time"
)

// DefaultTarget is the paper's minimum measurement duration.
const DefaultTarget = 5 * time.Second

// Stepper runs n consecutive time steps and reports the wall time of the
// stepping loop.
type Stepper func(n int) time.Duration

// CalibrateSteps returns a step count whose measurement should take at
// least target. It probes with geometrically growing counts until a probe
// takes long enough to extrapolate from (at least 1% of the target),
// then scales with 10% headroom.
func CalibrateSteps(step Stepper, target time.Duration) (int, error) {
	if target <= 0 {
		target = DefaultTarget
	}
	const maxSteps = 1 << 24
	probeFloor := target / 100
	for n := 1; n <= maxSteps; n *= 4 {
		d := step(n)
		if d <= 0 {
			continue
		}
		if d >= target {
			return n, nil
		}
		if d >= probeFloor {
			perStep := d / time.Duration(n)
			if perStep <= 0 {
				perStep = time.Nanosecond
			}
			need := int(float64(target)/float64(perStep)*1.1) + 1
			if need < n {
				need = n
			}
			if need > maxSteps {
				need = maxSteps
			}
			return need, nil
		}
	}
	return 0, fmt.Errorf("measure: steps too fast to calibrate against %v", target)
}

// Result is one completed measurement.
type Result struct {
	Steps   int
	Elapsed time.Duration
}

// GF converts the measurement to billions of floating-point operations per
// second given the per-step operation count, as the paper computes its
// reported numbers analytically from the 53 flops/point.
func (r Result) GF(flopsPerStep float64) float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return flopsPerStep * float64(r.Steps) / s / 1e9
}

// Run calibrates and performs the measurement in one call.
func Run(step Stepper, target time.Duration) (Result, error) {
	n, err := CalibrateSteps(step, target)
	if err != nil {
		return Result{}, err
	}
	return Result{Steps: n, Elapsed: step(n)}, nil
}
