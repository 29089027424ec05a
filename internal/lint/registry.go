package lint

// Default returns the project registry: every analyzer, configured with
// the repo's real invariants. cmd/advectlint runs exactly this set, and
// the ci.sh gate runs cmd/advectlint, so this list is the single place a
// new invariant gets wired in.
func Default() []*Analyzer {
	return []*Analyzer{CtxFlow(), LockHeld(), GoroutineLife()}
}
