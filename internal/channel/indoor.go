package channel

import (
	"math"

	"repro/internal/geom"
)

// Obstacle is a wall or board that attenuates any link crossing it.
// The Section 6.4 experiments place a thick board between the primary
// transmitter and receiver, and several concrete walls between labs.
type Obstacle struct {
	Wall geom.Segment
	// LossDB is the penetration loss in dB each crossing adds.
	LossDB float64
	// Label names the obstacle in reports ("board", "wall-1", ...).
	Label string
}

// IndoorModel computes average link gains in the simulated indoor testbed:
// log-distance path loss plus the penetration loss of every obstacle the
// line-of-sight segment crosses. Fast fading on top of the average gain is
// drawn separately (Rician with the model's K-factor).
type IndoorModel struct {
	// RefDist is the reference distance d0 in metres (typically 1 m).
	RefDist float64
	// RefLossDB is the path loss at d0 in dB.
	RefLossDB float64
	// Exponent is the log-distance path-loss exponent; ~3 indoors.
	Exponent float64
	// RicianK is the fading K-factor for unobstructed links; obstructed
	// links degrade toward Rayleigh (K = 0).
	RicianK float64
	// Obstacles are the walls of the floor plan.
	Obstacles []Obstacle
}

// PathLossDB returns the average path loss in dB between a and b,
// including the penetration loss of each crossed obstacle.
func (m IndoorModel) PathLossDB(a, b geom.Point) float64 {
	d := a.Dist(b)
	if d < m.RefDist {
		d = m.RefDist
	}
	loss := m.RefLossDB + 10*m.Exponent*math.Log10(d/m.RefDist)
	los := geom.Segment{A: a, B: b}
	for _, o := range m.Obstacles {
		if los.Intersects(o.Wall) {
			loss += o.LossDB
		}
	}
	return loss
}

// Crossings returns how many obstacles the a-b segment penetrates.
func (m IndoorModel) Crossings(a, b geom.Point) int {
	los := geom.Segment{A: a, B: b}
	n := 0
	for _, o := range m.Obstacles {
		if los.Intersects(o.Wall) {
			n++
		}
	}
	return n
}

// LinkK returns the Rician K-factor for the a-b link: the configured K
// when the path is clear, halved per crossed obstacle (obstructions kill
// the line-of-sight component first).
func (m IndoorModel) LinkK(a, b geom.Point) float64 {
	k := m.RicianK
	for i := 0; i < m.Crossings(a, b); i++ {
		k /= 2
	}
	return k
}
