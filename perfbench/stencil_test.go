package main

import (
	"context"
	"testing"
)

// The stencil's RMI counts follow from its fan-out design. The client
// issues, per step, one jacobiPlane call per page-plane per sweep, one
// applyPipelineK call per device for the chain and one reduceBinaryK
// call per device for the Dot. Underneath, JacobiOwner asks every device
// for its page count once per call, and every sweep pulls two halo
// planes per boundary between neighbouring page-planes, which always sit
// on different devices; the chain's and the Dot's operand pages are on
// the same machine and travel no RMI.
func TestStencilRMIsPerStep(t *testing.T) {
	ctx := context.Background()
	for _, g := range []stencilGeom{
		{N: 16, n: 4, devices: 4, sweeps: 2},
		{N: 32, n: 4, devices: 4, sweeps: 2},
		{N: 12, n: 4, devices: 3, sweeps: 4},
	} {
		s := newStencilGeom(5, g)
		if _, err := s.setUp(ctx, nil, 0); err != nil {
			s.tearDown()
			t.Fatalf("%+v: set-up: %v", g, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := s.op(ctx, 0, i, nil, 0); err != nil {
				s.tearDown()
				t.Fatalf("%+v: step %d: %v", g, i, err)
			}
		}
		const steps = 3
		sc, err := s.countSteps(ctx, steps)
		if err != nil {
			s.tearDown()
			t.Fatalf("%+v: count pass: %v", g, err)
		}
		P, D := int64(g.planes()), int64(min(g.planes(), g.devices))
		sweeps := int64(g.sweeps)
		if want := steps * (sweeps*P + D + D); sc.core != want {
			t.Errorf("%+v: client RMIs %d over %d steps, want %d", g, sc.core, steps, want)
		}
		if want := steps * (sweeps*P + D + sweeps*2*(P-1) + D + D); sc.all != want {
			t.Errorf("%+v: all RMIs %d over %d steps, want %d", g, sc.all, steps, want)
		}
		if sc.pipe != D || sc.dot != D {
			t.Errorf("%+v: one chain issued %d RMIs and one Dot %d, want %d each", g, sc.pipe, sc.dot, D)
		}
		if wrong, err := s.verify(ctx); err != nil || wrong != 0 {
			t.Errorf("%+v: replay found %d mismatches (err %v)", g, wrong, err)
		}
		// The replay must catch a wrong result.
		s.history[1].dot *= 1 + 1e-9
		if wrong, err := s.verify(ctx); err != nil || wrong != 1 {
			t.Errorf("%+v: replay of a corrupted dot found %d mismatches (err %v), want 1", g, wrong, err)
		}
		s.tearDown()
	}
}
