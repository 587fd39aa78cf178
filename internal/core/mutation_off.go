//go:build !timedice_mutation

package core

// cacheIgnoresInvalidation is the mutation-testing hook for the verdict
// cache: normal builds honour the per-partition state stamps, so any
// discontinuous change (release, completion, depletion, replenishment,
// sporadic chunk) recomputes the affected verdicts. Building with
// -tags timedice_mutation makes lookup skip the stamp comparison (see
// mutation_on.go), an injected staleness bug that TestCacheMutationCaught
// must detect by comparing the production policy with a twin whose cache is
// dropped before every decision.
const cacheIgnoresInvalidation = false
