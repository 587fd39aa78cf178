//go:build timedice_mutation

package core

// cacheIgnoresInvalidation under the timedice_mutation tag: Cache.lookup
// serves memoized verdicts without checking the per-partition state stamps,
// so epoch-bumping events (releases, completions, depletions,
// replenishments, sporadic chunks) no longer invalidate entries and stale
// verdicts — including FAIL verdicts memoized with an unbounded horizon —
// leak into later epochs. The run stays internally consistent, so only a
// comparison against fresh verdicts can catch it; TestCacheMutationCaught
// asserts it does.
const cacheIgnoresInvalidation = true
