package lint

// Default returns the project registry: every analyzer, configured with
// the repo's real invariants. cmd/advectlint runs exactly this set, and
// the ci.sh gate runs cmd/advectlint, so this list is the single place a
// new invariant gets wired in.
func Default() []*Analyzer {
	return []*Analyzer{
		// The one type whose nil is real traffic: untraced jobs carry a
		// nil recorder.
		Nilsafe(map[string][]string{
			"internal/obs": {"Recorder"},
		}),
		ClockDiscipline(
			[]string{"internal/gpusim", "internal/vtime"},
			[]string{"internal/vtime.Time", "internal/gpusim.HostClock"},
		),
		CtxFlow(),
		LockHeld(),
		LockOrder(),
		GoroutineLife(),
	}
}
