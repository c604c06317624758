package analysis

import (
	"math"
	"testing"
	"time"

	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/trace"
)

// dynamicsRound fabricates one round: 10 packets sent, car1 receives
// {1,10} directly (window 1..10, 8 missing), enters coop at t=60s and
// recovers 2,3,4 at 61,62,63 s.
func dynamicsRound() *trace.Collector {
	c := &trace.Collector{}
	for seq := uint32(1); seq <= 10; seq++ {
		c.OnTx(apID, packet.NewData(apID, car1, seq, nil), time.Duration(seq)*time.Second, time.Millisecond)
	}
	c.OnRx(car1, packet.NewData(apID, car1, 1, nil), mac.RxMeta{At: time.Second})
	c.OnRx(car1, packet.NewData(apID, car1, 10, nil), mac.RxMeta{At: 10 * time.Second})
	c.OnPhaseChange(car1, carq.PhaseReception, carq.PhaseCoopARQ, 60*time.Second)
	for i, seq := range []uint32{2, 3, 4} {
		c.OnRecovered(car1, seq, car2, time.Duration(61+i)*time.Second)
	}
	return c
}

func TestRecoveryDynamics(t *testing.T) {
	s := RecoveryDynamics(trace.NewIndex(dynamicsRound()), car1)
	if s.Len() != 4 {
		t.Fatalf("series len = %d, want 4", s.Len())
	}
	wantX := []float64{0, 1, 2, 3}
	wantY := []float64{8, 7, 6, 5}
	for i := range wantX {
		if math.Abs(s.X[i]-wantX[i]) > 1e-9 || math.Abs(s.Y[i]-wantY[i]) > 1e-9 {
			t.Fatalf("point %d = (%v, %v), want (%v, %v)", i, s.X[i], s.Y[i], wantX[i], wantY[i])
		}
	}
}

func TestRecoveryDynamicsNoCoopPhase(t *testing.T) {
	c := &trace.Collector{}
	c.OnRx(car1, packet.NewData(apID, car1, 1, nil), mac.RxMeta{})
	if s := RecoveryDynamics(trace.NewIndex(c), car1); s.Len() != 0 {
		t.Fatalf("series without coop phase has %d points", s.Len())
	}
}

func TestRecoveryDynamicsIgnoresOutOfWindowRecoveries(t *testing.T) {
	c := dynamicsRound()
	// A recovery outside the direct-reception window (seq 50) must not
	// appear in the series.
	c.OnRecovered(car1, 50, car2, 70*time.Second)
	s := RecoveryDynamics(trace.NewIndex(c), car1)
	if s.Len() != 4 {
		t.Fatalf("out-of-window recovery counted: %d points", s.Len())
	}
}

func TestHalfRecoveryTime(t *testing.T) {
	// Initial 8, final 5; target 6.5 -> first step at or below is y=6 at
	// t=2.
	if got := HalfRecoveryTime(trace.NewIndex(dynamicsRound()), car1); math.Abs(got-2) > 1e-9 {
		t.Fatalf("HalfRecoveryTime = %v, want 2", got)
	}
	// No recoveries: -1.
	c := &trace.Collector{}
	c.OnPhaseChange(car1, carq.PhaseReception, carq.PhaseCoopARQ, time.Second)
	if got := HalfRecoveryTime(trace.NewIndex(c), car1); got != -1 {
		t.Fatalf("HalfRecoveryTime without recoveries = %v", got)
	}
}
