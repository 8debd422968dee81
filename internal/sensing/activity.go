package sensing

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// PUActivity is a two-state (idle/busy) Markov on/off model of a primary
// user's channel occupancy, driven by the discrete-event engine with
// exponential holding times — the "short term predictions" substrate of
// the cognitive cycle.
type PUActivity struct {
	// MeanBusy and MeanIdle are the expected holding times in seconds.
	MeanBusy, MeanIdle float64

	busy     bool
	engine   *sim.Engine
	rng      *rand.Rand
	busyTime float64
	lastFlip float64
}

// NewPUActivity attaches an activity process to the engine, starting
// idle, and schedules its state flips.
func NewPUActivity(eng *sim.Engine, rng *rand.Rand, meanBusy, meanIdle float64) (*PUActivity, error) {
	if meanBusy <= 0 || meanIdle <= 0 {
		return nil, fmt.Errorf("sensing: holding times %g/%g must be positive", meanBusy, meanIdle)
	}
	a := &PUActivity{
		MeanBusy: meanBusy, MeanIdle: meanIdle,
		engine: eng, rng: rng,
	}
	a.scheduleFlip()
	return a, nil
}

func (a *PUActivity) scheduleFlip() {
	mean := a.MeanIdle
	if a.busy {
		mean = a.MeanBusy
	}
	a.engine.ScheduleAfter(a.rng.ExpFloat64()*mean, a.flip)
}

func (a *PUActivity) flip() {
	now := a.engine.Now()
	if a.busy {
		a.busyTime += now - a.lastFlip
	}
	a.busy = !a.busy
	a.lastFlip = now
	a.scheduleFlip()
}

// Busy reports the current occupancy.
func (a *PUActivity) Busy() bool { return a.busy }

// DutyCycle returns the fraction of elapsed time spent busy.
func (a *PUActivity) DutyCycle() float64 {
	now := a.engine.Now()
	if now == 0 {
		return 0
	}
	busy := a.busyTime
	if a.busy {
		busy += now - a.lastFlip
	}
	return busy / now
}

// ChannelSelector scans a set of primary channels with an energy
// detector and picks one to share — Step 1 of Algorithm 3 ("the head
// determines the PU to share the frequency based on the sensed
// environment").
type ChannelSelector struct {
	Detector EnergyDetector
	// Sensors is the number of cooperating SUs fusing decisions.
	Sensors int
	// Rule fuses the SU votes.
	Rule FusionRule
}

// Channel is one sensed primary band.
type Channel struct {
	// Activity drives occupancy.
	Activity *PUActivity
	// SNR is the primary's per-sample SNR at the sensing SUs.
	SNR float64
}

// Select senses every channel once and returns the index of the first
// channel fused as idle, or -1 when all appear busy. The scan order is
// deterministic so results reproduce per seed.
func (s ChannelSelector) Select(rng *rand.Rand, channels []Channel) (int, error) {
	if len(channels) == 0 {
		return -1, fmt.Errorf("sensing: no channels to scan")
	}
	if s.Sensors < 1 {
		return -1, fmt.Errorf("sensing: need at least one sensor, got %d", s.Sensors)
	}
	for i, ch := range channels {
		votes := make([]bool, s.Sensors)
		for v := range votes {
			votes[v], _ = s.Detector.Sense(rng, ch.Activity.Busy(), ch.SNR)
		}
		busy, err := Fuse(s.Rule, votes)
		if err != nil {
			return -1, err
		}
		if !busy {
			return i, nil
		}
	}
	return -1, nil
}
