package check

import "timedice/internal/telemetry"

// Digester is the minimal telemetry sink: it folds every event into the
// canonical FNV-1a stream digest and counts them, and does nothing else — no
// oracles, no ledgers. It is the cheapest way to pin "these two runs emitted
// byte-identical event streams".
type Digester struct {
	h uint64
	n int64
}

// NewDigester returns a Digester starting at DigestSeed.
func NewDigester() *Digester { return &Digester{h: DigestSeed} }

// Event implements telemetry.Sink.
func (d *Digester) Event(e telemetry.Event) {
	d.h = hashEvent(d.h, e)
	d.n++
}

// Digest returns the running stream digest — equal to DigestEvents of every
// event observed so far.
func (d *Digester) Digest() uint64 { return d.h }

// Events returns the number of events folded so far.
func (d *Digester) Events() int64 { return d.n }

// Reset rewinds the Digester to its initial state.
func (d *Digester) Reset() {
	d.h = DigestSeed
	d.n = 0
}

var _ telemetry.Sink = (*Digester)(nil)

// Fold64 folds one 64-bit word into a running FNV-1a digest, byte by byte —
// the same primitive the event digest uses. Aggregators use it to combine
// per-unit digests into one order-sensitive summary (e.g. simfuzz's
// campaign digest, folding per-scenario digests in campaign order).
func Fold64(h, v uint64) uint64 { return fnvFold(h, v) }
