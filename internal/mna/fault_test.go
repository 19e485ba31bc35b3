//go:build faultinject

package mna

import (
	"testing"

	"rlckit/internal/circuit"
	"rlckit/internal/faultinject"
)

// TestTreeFactorFaultFailsTheRun: an injected factorization fault in
// the tree LU fails the transient with the fault; it is not mistaken
// for a small pivot and re-routed to the band solver.
func TestTreeFactorFaultFailsTheRun(t *testing.T) {
	defer faultinject.Reset()
	ckt := circuit.New()
	sinks := addTree(ckt, "", 1e-12)
	faultinject.Configure(faultinject.Config{Rates: map[string]float64{faultinject.SiteFactor: 1}})
	_, err := Simulate(ckt, Options{Dt: 2e-13, TEnd: 1e-10, Probes: sinks, CrossLevel: 0.5})
	if !faultinject.IsFault(err) {
		t.Fatalf("err = %v, want an injected fault", err)
	}
	if n := faultinject.Fired(faultinject.SiteFactor); n != 1 {
		t.Errorf("factor failpoint fired %d times, want 1 (no band fallback)", n)
	}
}

// TestOperatingPointFactorFaultFailsTheRun: in a run that needs its
// t = 0 operating point (a step already on), an injected fault at
// either factorization — the step matrix's or G's — fails the run;
// none is taken for a singular G that starts the circuit at rest.
func TestOperatingPointFactorFaultFailsTheRun(t *testing.T) {
	defer faultinject.Reset()
	ckt, out := buildRC(100, 1e-12, 0)
	faulted := 0
	for seed := int64(0); seed < 64; seed++ {
		faultinject.Configure(faultinject.Config{Seed: seed, Rates: map[string]float64{faultinject.SiteFactor: 0.5}})
		_, err := Simulate(ckt, Options{Dt: 1e-12, TEnd: 1e-11, Probes: []int{out}})
		if faultinject.Fired(faultinject.SiteFactor) > 0 {
			faulted++
			if !faultinject.IsFault(err) {
				t.Fatalf("seed %d: a factor fault fired but the run returned err = %v", seed, err)
			}
		}
	}
	if faulted == 0 {
		t.Fatal("no seed fired the factor failpoint")
	}
}
