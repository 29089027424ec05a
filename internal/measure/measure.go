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
