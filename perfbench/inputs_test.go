package main

import (
	"reflect"
	"testing"
)

// allInputs generates every input of every workload for a seed (the
// stencil fields at a small size).
func allInputs(seed int64) []any {
	return []any{
		echoInputs(seed, 0, echoMachines),
		echoInputs(seed, 1, echoMachines),
		stencilField(seed, "u", 16),
		stencilField(seed, "v", 16),
		stencilAlphas(seed),
		rwInputs(seed, 0, rwHalf(0)),
		rwInputs(seed, 1, rwHalf(1)),
		rwPool(seed),
	}
}

func TestInputsRepeatForASeed(t *testing.T) {
	a, b := allInputs(7), allInputs(7)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d differs between two generations from seed 7", i)
		}
	}
}

func TestInputsDifferAcrossSeeds(t *testing.T) {
	a, b := allInputs(7), allInputs(8)
	for i := range a {
		if reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d is the same for seeds 7 and 8", i)
		}
	}
}

func TestEchoMix(t *testing.T) {
	var kinds [4]int
	for _, op := range echoInputs(1, 0, echoMachines) {
		kinds[op.kind]++
		want := map[int]int{kindEcho: echoSmall, kindEchoLarge: echoLarge, kindPing: 0, kindRelay: echoSmall}[op.kind]
		if len(op.payload) != want {
			t.Fatalf("%s op with a %d-byte payload", echoSpanNames[op.kind], len(op.payload))
		}
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("no %s op in the stream", echoSpanNames[k])
		}
	}
	if kinds[kindEcho] < echoRing/2 {
		t.Errorf("64 B echo is %d of %d ops, want most", kinds[kindEcho], echoRing)
	}
}

// Boxes stay inside the client's half and under the size cap, and the
// stream holds both reads and writes and both sub-page and multi-page
// boxes.
func TestArrayRWBoxes(t *testing.T) {
	for c := 0; c < rwClients; c++ {
		half := rwHalf(c)
		var writes, small, multi int
		for _, op := range rwInputs(3, c, half) {
			if !op.dom.Within(half) || op.dom.Empty() {
				t.Fatalf("client %d box %v outside its half %v", c, op.dom, half)
			}
			if op.dom.Size() > rwMaxBox || op.off+op.dom.Size() > rwPoolLen {
				t.Fatalf("client %d box %v too large", c, op.dom)
			}
			if op.write {
				writes++
			}
			switch n := regionsOf(op.dom); {
			case n == 1 && op.dom.Size() < rwPage1*rwPage2*rwPage3:
				small++
			case n > 1:
				multi++
			}
		}
		if writes < rwRing/5 || writes > rwRing*2/5 {
			t.Errorf("client %d: %d writes of %d ops, want about 30%%", c, writes, rwRing)
		}
		if small == 0 || multi == 0 {
			t.Errorf("client %d: %d sub-page and %d multi-page boxes, want both", c, small, multi)
		}
	}
}
