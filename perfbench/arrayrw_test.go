package main

import (
	"context"
	"errors"
	"testing"
)

// Reads are checked against the shadow copy, and the quiescence check
// reads every replica of every page.
func TestArrayRWChecks(t *testing.T) {
	ctx := context.Background()
	w := newArrayRW(11).(*arrayRW)
	if _, err := w.setUp(ctx, nil, 0); err != nil {
		w.tearDown()
		t.Fatalf("set-up: %v", err)
	}
	defer w.tearDown()
	for c := 0; c < rwClients; c++ {
		for i := 0; i < 64; i++ {
			if _, err := w.op(ctx, c, i, nil, 0); err != nil {
				t.Fatalf("client %d op %d: %v", c, i, err)
			}
		}
	}
	if wrong, err := w.verify(ctx); err != nil || wrong != 0 {
		t.Fatalf("quiescence check found %d mismatches (err %v)", wrong, err)
	}

	// Corrupt the expected value of one element: the next read covering
	// it must fail as wrong, and both replicas of its page must mismatch.
	var read rwOp
	for _, op := range w.inputs[0] {
		if !op.write {
			read = op
			break
		}
	}
	lo := read.dom.Lo
	w.shadow[(lo[0]*rwN+lo[1])*rwN+lo[2]] += 1
	i := 0
	for w.inputs[0][i] != read {
		i++
	}
	if _, err := w.op(ctx, 0, i, nil, 0); !errors.Is(err, errWrong) {
		t.Fatalf("read over a corrupted element: err %v, want a wrong output", err)
	}
	if wrong, err := w.verify(ctx); err != nil || wrong != rwReplicas {
		t.Fatalf("quiescence check found %d mismatches (err %v), want %d", wrong, err, rwReplicas)
	}
}

// A write stores new values on every lap of its stream, so a write lost
// on the second lap leaves the first lap's values behind, and both the
// read check and the quiescence check see them.
func TestArrayRWLostSecondLapWrite(t *testing.T) {
	ctx := context.Background()
	w := newArrayRW(12).(*arrayRW)
	if _, err := w.setUp(ctx, nil, 0); err != nil {
		w.tearDown()
		t.Fatalf("set-up: %v", err)
	}
	defer w.tearDown()
	i := 0
	for !w.inputs[0][i].write {
		i++
	}
	dom := w.inputs[0][i].dom
	if _, err := w.op(ctx, 0, i, nil, 0); err != nil {
		t.Fatalf("first-lap write: %v", err)
	}

	// Lose the second-lap write: the shadow takes its values, the array
	// does not.
	second := w.writeValues(0, i+rwRing)
	boxCopy(w.shadow, second, dom, true)
	buf := make([]float64, dom.Size())
	if err := w.arr.Read(ctx, buf, dom); err != nil {
		t.Fatalf("read: %v", err)
	}
	if boxEqual(w.shadow, buf, dom) {
		t.Fatalf("read after a lost second-lap write of %v matches the shadow", dom)
	}
	if wrong, err := w.verify(ctx); err != nil || wrong < rwReplicas {
		t.Fatalf("quiescence check found %d mismatches (err %v), want at least %d", wrong, err, rwReplicas)
	}
}
