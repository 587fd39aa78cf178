// Package covert implements the paper's §III covert timing channel between
// real-time partitions, end to end:
//
//   - a sender partition that modulates how it consumes its CPU budget to
//     signal bits (full consumption = 1, minimal = 0, Fig. 3);
//   - a receiver partition whose single task measures its own response time
//     over fixed monitoring windows, and additionally records an execution
//     vector of M micro-intervals per window for the learning-based receiver
//     (§III-d);
//   - the profiling phase (alternating bits; odd/even grouping; empirical
//     Pr(R|X) models) and the communication phase (Bayesian inference on new
//     observations, or a trained classifier on execution vectors);
//   - noise partitions that perturb their periods and execution times by a
//     bounded random fraction, as in the feasibility test (§III-f);
//   - channel metrics: decoding accuracy and the information-theoretic
//     channel capacity of §V-B1.
//
// The same experiment runs under any global policy, which is how Figs. 4, 12,
// 13, 14 and 15 are regenerated.
package covert

import (
	"fmt"

	"timedice/internal/engine"
	"timedice/internal/infotheory"
	"timedice/internal/ml"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/server"
	"timedice/internal/stats"
	"timedice/internal/task"
	"timedice/internal/telemetry"
	"timedice/internal/vtime"
)

// Config describes one covert-channel experiment.
type Config struct {
	// Spec is the system; sender and receiver partitions get their task sets
	// replaced by the channel tasks, the rest become noise partitions.
	Spec model.SystemSpec
	// Sender and Receiver are partition indices into Spec.Partitions.
	Sender, Receiver int

	// Window is the monitoring window length (§III-a); one bit is signaled
	// per window. Default: 3× the receiver partition's period, as in the
	// feasibility test (150 ms for Table I).
	Window vtime.Duration
	// MicroIntervals is M, the execution-vector length (default 150).
	MicroIntervals int
	// DemandFactor sizes the receiver's per-window code block as a fraction
	// of its per-window budget supply (demand = DemandFactor · (Window/T_R)
	// · B_R). The paper's block needs "three full budget-replenishments of
	// Π_4 in the worst case", i.e. slightly more than two budgets of demand:
	// the default 0.70 of the 3-period supply reproduces Fig. 4(a)'s
	// response-time range (just past 2·T_R) and leaves slack so one window's
	// measurement never bleeds into the next.
	DemandFactor float64
	// SenderPeriod is the sender task's period. The default Window/3 makes
	// the sender "execute three times during a monitoring window" as in
	// Fig. 3 and §III-e (50 ms for the Table I configuration).
	SenderPeriod vtime.Duration
	// Servers is the budget-server policy used by every partition in the
	// channel experiments (default server.Deferrable). The paper's
	// sporadic-polling server retains budget for deferred arrivals, which is
	// what lets a sender job released mid-period burst against the receiver;
	// a pure polling server would discard the budget and structurally close
	// the channel in a phase-locked simulation.
	Servers server.Policy
	// NoiseFraction is the bounded random variation of the noise partitions'
	// task periods and execution times (default 0.20 as in §III-f). Set
	// NoNoise to run them at exactly nominal parameters instead.
	NoiseFraction float64
	// NoNoise disables the noise partitions' random variation.
	NoNoise bool

	// ProfileWindows and TestWindows size the two phases.
	ProfileWindows, TestWindows int
	// WarmupWindows run before profiling and are discarded (default 10).
	WarmupWindows int

	// Policy is the global scheduler under test (default policies.NoRandom).
	Policy policies.Kind
	// Quantum is MIN_INV_SIZE for the TimeDice policies (default 1 ms).
	Quantum vtime.Duration

	// Levels enables the multi-bit extension: the sender signals one of
	// Levels budget-consumption levels per window and the receiver decodes a
	// symbol (default 2 = binary).
	Levels int
	// TestSymbols, when non-empty, replaces the uniformly random
	// communication-phase symbols with the given sequence (values in
	// [0, Levels)), truncated or zero-padded to TestWindows. The message
	// layer (SendMessage) uses it to transmit real payloads.
	TestSymbols []int
	// Strategy selects the sender's modulation (default AmplitudeModulation).
	Strategy SenderStrategy
	// ShuffleLocal applies TaskShuffler-style randomization to every
	// partition's LOCAL scheduler (random dispatch among backlogged tasks).
	// It demonstrates the negative result that task-level randomization
	// cannot close the partition-level channel: the partitions' CPU
	// occupancy — the channel's medium — is unchanged.
	ShuffleLocal bool

	Seed uint64

	// Telemetry, when non-nil, receives the simulation's event stream
	// (slices, decisions, inversion windows) — e.g. an obs.Recorder for
	// flight-recording a channel trial. Attaching a sink must not change
	// any Result; TestHarnessTelemetryInvariance pins that.
	Telemetry telemetry.Sink
}

func (c *Config) fill() error {
	if c.Sender < 0 || c.Sender >= len(c.Spec.Partitions) ||
		c.Receiver < 0 || c.Receiver >= len(c.Spec.Partitions) || c.Sender == c.Receiver {
		return fmt.Errorf("covert: invalid sender/receiver indices %d/%d", c.Sender, c.Receiver)
	}
	if c.Window <= 0 {
		c.Window = 3 * c.Spec.Partitions[c.Receiver].Period
	}
	if c.MicroIntervals <= 0 {
		c.MicroIntervals = 150
	}
	if c.DemandFactor <= 0 {
		c.DemandFactor = 0.90
	}
	if c.SenderPeriod <= 0 {
		c.SenderPeriod = c.Window / 3
	}
	if c.Servers == 0 {
		c.Servers = server.Deferrable
	}
	switch {
	case c.NoNoise:
		c.NoiseFraction = 0
	case c.NoiseFraction <= 0:
		c.NoiseFraction = 0.20
	}
	if c.ProfileWindows <= 0 {
		c.ProfileWindows = 500
	}
	if c.TestWindows <= 0 {
		c.TestWindows = 1000
	}
	if c.WarmupWindows <= 0 {
		c.WarmupWindows = 10
	}
	if c.Policy == 0 {
		c.Policy = policies.NoRandom
	}
	if c.Levels < 2 {
		c.Levels = 2
	}
	if c.Strategy == PulsePosition {
		if slots := int(c.Window / c.SenderPeriod); c.Levels > slots {
			c.Levels = slots
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// SenderStrategy selects how the sender encodes a symbol into its budget
// consumption.
type SenderStrategy int

const (
	// AmplitudeModulation is the paper's scheme (Fig. 3): the symbol scales
	// HOW MUCH budget every sender job in the window consumes.
	AmplitudeModulation SenderStrategy = iota
	// PulsePosition encodes the symbol in WHICH of the window's sender jobs
	// consumes the full budget (the others consume minimally) — a smarter
	// adversary probing whether TimeDice's defense depends on the
	// modulation family. Levels is capped at the number of sender arrivals
	// per window.
	PulsePosition
)

// String names the strategy.
func (s SenderStrategy) String() string {
	if s == PulsePosition {
		return "pulse-position"
	}
	return "amplitude"
}

// Observation is one monitoring window's worth of receiver-side evidence.
type Observation struct {
	Window   int
	Label    int            // the sender's symbol (ground truth)
	Response vtime.Duration // receiver's measured response time
	Vector   []float64      // execution vector (length M)
}

// Result is the outcome of one experiment.
type Result struct {
	Config Config

	Profile []Observation
	Test    []Observation

	// RTAccuracy is the response-time (Bayesian) decoder's accuracy over the
	// test phase.
	RTAccuracy float64
	// OnlineRTAccuracy is the adaptive (decision-directed, exponentially
	// forgetting) response-time decoder's accuracy — an extension checking
	// that TimeDice's protection is not an artifact of model staleness.
	OnlineRTAccuracy float64
	// VecAccuracy maps learner name to execution-vector decoding accuracy.
	VecAccuracy map[string]float64
	// Capacity is the histogram-based channel capacity (bits per window)
	// over the test phase with uniform input, Eq. (6) as the paper
	// evaluates it.
	Capacity float64
	// CapacityOpt maximizes over the input distribution via Blahut–Arimoto
	// (the full C = max_{p(X)} (H(X) − H(X|R)) definition); ≥ Capacity up
	// to estimation noise.
	CapacityOpt float64
	// Hist0 and Hist1 are the profiled Pr(R|X) histograms (ms bins).
	Hist0, Hist1 *stats.Histogram
}

// Run executes the experiment: build the system, attach sender/receiver/noise
// instrumentation, simulate warmup+profile+test, then decode. vecTrainers,
// when non-empty, are trained on the profile-phase vectors and evaluated on
// the test phase (the §III-d learning-based approach).
//
// Run is the one-shot form of the trial Harness: campaigns that sweep many
// seeds over one configuration should build a Harness (or use RunSeeds,
// which does) and reuse it instead of reconstructing the system per trial.
func Run(cfg Config, vecTrainers ...ml.Trainer) (*Result, error) {
	h, err := NewHarness(cfg)
	if err != nil {
		return nil, err
	}
	return h.Run(h.cfg.Seed, vecTrainers...)
}

// decode turns one simulated trial's collected windows into a Result.
func decode(cfg Config, cs *channelState, symbols []int, vecTrainers []ml.Trainer) (*Result, error) {
	res := &Result{Config: cfg, VecAccuracy: make(map[string]float64)}
	res.Profile, res.Test = cs.observations(cfg, symbols)
	if len(res.Profile) == 0 || len(res.Test) == 0 {
		return nil, fmt.Errorf("covert: no observations collected (profile=%d test=%d)", len(res.Profile), len(res.Test))
	}

	dec := profileResponses(res.Profile, cfg.Levels)
	res.Hist0, res.Hist1 = dec.hist(0), dec.hist(1)
	online := newOnlineDecoder(dec, 0)
	correct, onlineCorrect := 0, 0
	for _, ob := range res.Test {
		if dec.classify(ob.Response) == ob.Label {
			correct++
		}
		if online.Classify(ob.Response) == ob.Label {
			onlineCorrect++
		}
	}
	res.RTAccuracy = float64(correct) / float64(len(res.Test))
	res.OnlineRTAccuracy = float64(onlineCorrect) / float64(len(res.Test))
	res.Capacity, res.CapacityOpt = capacity(res.Test)

	for _, tr := range vecTrainers {
		acc, err := vectorAccuracy(tr, res.Profile, res.Test)
		if err != nil {
			return nil, fmt.Errorf("covert: %s: %w", tr.Name(), err)
		}
		res.VecAccuracy[tr.Name()] = acc
	}
	return res, nil
}

// makeSymbols builds the per-window sender symbols: warmup zeros, a balanced
// profile sequence, and uniform random test symbols.
//
// The profile sequence cycles through all levels in blocks, but the order
// within each block follows an agreed-upon pseudo-random permutation (both
// parties derive it from the channel protocol). A plain alternation would
// lock the profiling pattern to any periodic ambient interference whose
// period divides the alternation cycle — the Table I system's hyperperiod is
// exactly 4 monitoring windows — and the receiver would profile the ambient
// phase instead of the sender's signal. Block-shuffling makes every level
// sample every ambient phase.
func makeSymbols(cfg Config, r *rng.Rand, total int) []int {
	symbols := make([]int, total)
	fillSymbols(cfg, r, symbols)
	return symbols
}

// fillSymbols writes the per-window symbol sequence into an existing slice,
// so a reused Harness can redraw a trial's symbols without reallocating (the
// sender's modulation closure captures the slice's backing array).
func fillSymbols(cfg Config, r *rng.Rand, symbols []int) {
	total := len(symbols)
	// The permutation stream is part of the channel protocol: fixed seed,
	// independent of the experiment's noise/selection randomness.
	proto := rng.New(0x7a11eb0a ^ uint64(cfg.Levels))
	block := make([]int, cfg.Levels)
	for w := 0; w < total; w++ {
		switch {
		case w < cfg.WarmupWindows:
			symbols[w] = 0
		case w < cfg.WarmupWindows+cfg.ProfileWindows:
			k := (w - cfg.WarmupWindows) % cfg.Levels
			if k == 0 {
				for i := range block {
					block[i] = i
				}
				proto.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			}
			symbols[w] = block[k]
		default:
			k := w - cfg.WarmupWindows - cfg.ProfileWindows
			if k < len(cfg.TestSymbols) {
				s := cfg.TestSymbols[k]
				if s < 0 || s >= cfg.Levels {
					s = 0
				}
				symbols[w] = s
			} else if len(cfg.TestSymbols) > 0 {
				symbols[w] = 0
			} else {
				symbols[w] = r.Intn(cfg.Levels)
			}
		}
	}
}

// capacity estimates the channel capacity from the test observations with
// 1 ms response-time bins: both the paper's uniform-input evaluation
// (Eq. 6) and the input-optimized Blahut–Arimoto value. For the multi-bit
// extension it reports binary capacity over the low bit.
func capacity(obs []Observation) (uniform, optimal float64) {
	if len(obs) == 0 {
		return 0, 0
	}
	maxMS := 1
	for _, ob := range obs {
		if ms := int(ob.Response / vtime.Millisecond); ms > maxMS {
			maxMS = ms
		}
	}
	j := infotheory.NewJointCounts(maxMS + 2)
	for _, ob := range obs {
		j.Add(ob.Label&1, int(ob.Response/vtime.Millisecond))
	}
	return j.Capacity(), j.OptimalCapacity()
}

// vectorAccuracy trains tr on the profile vectors and scores the test phase.
func vectorAccuracy(tr ml.Trainer, profile, test []Observation) (float64, error) {
	xs := make([][]float64, 0, len(profile))
	ys := make([]int, 0, len(profile))
	for _, ob := range profile {
		xs = append(xs, ob.Vector)
		ys = append(ys, ob.Label&1)
	}
	clf, err := tr.Train(xs, ys)
	if err != nil {
		return 0, err
	}
	tx := make([][]float64, 0, len(test))
	ty := make([]int, 0, len(test))
	for _, ob := range test {
		tx = append(tx, ob.Vector)
		ty = append(ty, ob.Label&1)
	}
	return ml.Accuracy(clf, tx, ty), nil
}

// channelState wires the instrumentation into a built system.
type channelState struct {
	window     vtime.Duration
	micro      int
	total      int
	receiver   int // partition index
	responses  []vtime.Duration
	haveResp   []bool
	vectors    [][]float64
	receiverTk *task.Task
	sched      *task.Scheduler
	// noiseSplits retains, in creation order, every generator split off the
	// noise stream during instrumentation (shuffle hooks first, then noise
	// tasks). A reused Harness reseeds them in this exact order to replay a
	// fresh run's split sequence.
	noiseSplits []*rng.Rand
}

// resetBuffers clears the per-trial observation state so the instrumented
// system can run another trial.
func (cs *channelState) resetBuffers() {
	for i := range cs.responses {
		cs.responses[i] = 0
		cs.haveResp[i] = false
	}
	for _, v := range cs.vectors {
		for i := range v {
			v[i] = 0
		}
	}
}

// instrument replaces the sender's and receiver's task sets with the channel
// tasks and adds noise hooks to all other partitions.
func instrument(cfg Config, spec model.SystemSpec, symbols []int, noise *rng.Rand) (*model.Built, *channelState, error) {
	sSpec := spec.Partitions[cfg.Sender]
	rSpec := spec.Partitions[cfg.Receiver]

	// Copy the spec so we can replace the channel partitions' task sets and
	// apply the experiment's server policy.
	parts := make([]model.PartitionSpec, len(spec.Partitions))
	copy(parts, spec.Partitions)
	for i := range parts {
		parts[i].Server = cfg.Servers
	}
	senderBudget := sSpec.Budget
	parts[cfg.Sender].Tasks = []model.TaskSpec{{
		Name:   "sender",
		Period: cfg.SenderPeriod,
		WCET:   senderBudget,
	}}
	supplyPerWindow := rSpec.Budget.Scale(int64(cfg.Window), int64(rSpec.Period))
	demand := vtime.Duration(cfg.DemandFactor * float64(supplyPerWindow))
	if demand < vtime.Millisecond {
		demand = vtime.Millisecond
	}
	parts[cfg.Receiver].Tasks = []model.TaskSpec{{
		Name:   "receiver",
		Period: cfg.Window,
		WCET:   demand,
		// Responses can exceed the window under randomization; give the
		// validation an explicit deadline.
		Deadline: 8 * cfg.Window,
	}}
	spec.Partitions = parts

	built, err := spec.Build()
	if err != nil {
		return nil, nil, err
	}

	cs := &channelState{
		window:    cfg.Window,
		micro:     cfg.MicroIntervals,
		total:     len(symbols),
		receiver:  cfg.Receiver,
		responses: make([]vtime.Duration, len(symbols)),
		haveResp:  make([]bool, len(symbols)),
		vectors:   make([][]float64, len(symbols)),
	}
	for w := range cs.vectors {
		cs.vectors[w] = make([]float64, cfg.MicroIntervals)
	}

	// Sender modulation.
	levels := cfg.Levels
	sender := built.Task[model.TaskKey(sSpec.Name, "sender")]
	const minBurst = 10 * vtime.Microsecond
	switch cfg.Strategy {
	case PulsePosition:
		// Symbol s: only the s-th sender arrival of the window bursts.
		period := cfg.SenderPeriod
		sender.ExecFn = func(_ int64, arrival vtime.Time) vtime.Duration {
			w := int(arrival / vtime.Time(cfg.Window))
			if w >= len(symbols) {
				w = len(symbols) - 1
			}
			offset := vtime.Duration(arrival) % cfg.Window
			pos := int(offset / period)
			if pos == symbols[w] {
				return senderBudget
			}
			return minBurst
		}
	default: // AmplitudeModulation
		sender.ExecFn = func(_ int64, arrival vtime.Time) vtime.Duration {
			w := int(arrival / vtime.Time(cfg.Window))
			if w >= len(symbols) {
				w = len(symbols) - 1
			}
			level := symbols[w]
			if level <= 0 {
				return minBurst
			}
			return senderBudget.Scale(int64(level), int64(levels-1))
		}
	}

	// Receiver: record response times by window index (its job k arrives at
	// exactly k·Window).
	cs.sched = built.Sched[rSpec.Name]
	cs.sched.OnComplete = func(c task.Completion) {
		w := int(c.Job.Index)
		if w >= 0 && w < len(cs.responses) {
			cs.responses[w] = c.Response
			cs.haveResp[w] = true
		}
	}

	if cfg.ShuffleLocal {
		for _, ps := range spec.Partitions {
			sr := noise.Split()
			cs.noiseSplits = append(cs.noiseSplits, sr)
			built.Sched[ps.Name].Shuffle = sr.Intn
		}
	}

	// Noise partitions: bounded random variation of period and execution.
	if cfg.NoiseFraction > 0 {
		frac := cfg.NoiseFraction
		for pi, ps := range spec.Partitions {
			if pi == cfg.Sender || pi == cfg.Receiver {
				continue
			}
			for _, ts := range ps.Tasks {
				t := built.Task[model.TaskKey(ps.Name, ts.Name)]
				wcet, period := t.WCET, t.Period
				nr := noise.Split()
				cs.noiseSplits = append(cs.noiseSplits, nr)
				t.ExecFn = func(int64, vtime.Time) vtime.Duration {
					// Execution varies downward (WCET is the upper bound).
					return vtime.Duration(float64(wcet) * (1 - frac*nr.Float64()))
				}
				t.PeriodFn = func(int64, vtime.Time) vtime.Duration {
					// Inter-arrival varies upward (Period is the minimum).
					return vtime.Duration(float64(period) * (1 + frac*nr.Float64()))
				}
			}
		}
	}
	return built, cs, nil
}

// install hooks the execution-vector collection into the engine.
func (cs *channelState) install(sys *engine.System) {
	sys.TraceFn = func(seg engine.Segment) {
		if seg.Partition != cs.receiver {
			return
		}
		cs.mark(seg.Start, seg.End)
	}
}

// mark sets the micro-interval bits overlapped by [start, end).
func (cs *channelState) mark(start, end vtime.Time) {
	microLen := cs.window / vtime.Duration(cs.micro)
	if microLen <= 0 {
		microLen = vtime.Microsecond
	}
	for t := start; t < end; {
		w := int(t / vtime.Time(cs.window))
		if w >= cs.total {
			return
		}
		inWindow := vtime.Duration(t - vtime.Time(w)*vtime.Time(cs.window))
		mi := int(inWindow / microLen)
		if mi >= cs.micro {
			mi = cs.micro - 1
		}
		cs.vectors[w][mi] = 1
		// Advance to the start of the next micro interval.
		next := vtime.Time(w)*vtime.Time(cs.window) + vtime.Time(vtime.Duration(mi+1)*microLen)
		if next <= t {
			next = t + 1
		}
		t = next
	}
}

// observations splits the collected windows into profile and test sets,
// discarding warmup and any window whose response never completed.
func (cs *channelState) observations(cfg Config, symbols []int) (profile, test []Observation) {
	for w := cfg.WarmupWindows; w < cs.total; w++ {
		if !cs.haveResp[w] {
			continue
		}
		ob := Observation{
			Window:   w,
			Label:    symbols[w],
			Response: cs.responses[w],
			Vector:   cs.vectors[w],
		}
		if w < cfg.WarmupWindows+cfg.ProfileWindows {
			profile = append(profile, ob)
		} else {
			test = append(test, ob)
		}
	}
	return profile, test
}
