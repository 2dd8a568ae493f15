package main

// Seeded inputs. Every input a workload hands the program is generated
// here from the -seed argument alone: the echo payloads and call mix,
// the stencil's initial fields and step parameters, and the array-rw
// sub-boxes, read/write order and written values. Each caller draws from
// its own stream, so callers are independent of each other's progress.

import (
	"hash/fnv"
	"math/bits"
	"math/rand"

	"oopp/internal/core"
)

// rngFor returns the generator of one named input stream of a seed.
func rngFor(seed int64, stream string, index int) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream)) // hash.Hash writes never fail
	mix := int64(h.Sum64()) ^ seed*0x5851f42d4c957f2d ^ int64(index)*0x14057b7ef767814f
	return rand.New(rand.NewSource(mix))
}

// Echo operation kinds.
const (
	kindEcho      = iota // 64 B echo
	kindEchoLarge        // 4 KiB echo
	kindPing             // high-priority ping
	kindRelay            // 64 B echo relayed through a second machine
)

const (
	echoSmall = 64
	echoLarge = 4 << 10
	// echoRing is the length of each caller's input stream; a caller
	// that reaches its end starts it again.
	echoRing = 4096
)

// echoOp is one call of the rmi-echo workload.
type echoOp struct {
	kind    int
	machine int
	payload []byte
}

// echoInputs generates caller's stream: 80% 64 B echo, 10% 4 KiB echo,
// 5% ping, 5% relay, each to a seeded machine.
func echoInputs(seed int64, caller, machines int) []echoOp {
	r := rngFor(seed, "rmi-echo", caller)
	ops := make([]echoOp, echoRing)
	for i := range ops {
		op := echoOp{machine: r.Intn(machines)}
		switch x := r.Intn(100); {
		case x < 80:
			op.kind = kindEcho
		case x < 90:
			op.kind = kindEchoLarge
		case x < 95:
			op.kind = kindPing
		default:
			op.kind = kindRelay
		}
		switch op.kind {
		case kindEcho, kindRelay:
			op.payload = make([]byte, echoSmall)
		case kindEchoLarge:
			op.payload = make([]byte, echoLarge)
		}
		r.Read(op.payload)
		ops[i] = op
	}
	return ops
}

// stencilField generates one N³ field of the stencil workload (which
// names the field: "u" for the Jacobi iterate, "v" for the chain's
// target), values in [0, 1).
func stencilField(seed int64, which string, N int) []float64 {
	r := rngFor(seed, "stencil/"+which, 0)
	u := make([]float64, N*N*N)
	for i := range u {
		u[i] = r.Float64()
	}
	return u
}

// stencilAlphas generates the axpy coefficient of each step; step s
// uses alphas[s%len(alphas)].
func stencilAlphas(seed int64) []float64 {
	r := rngFor(seed, "stencil/alpha", 0)
	a := make([]float64, 256)
	for i := range a {
		a[i] = r.Float64()*0.5 - 0.25
	}
	return a
}

// rwOp is one operation of the array-rw workload: a read or a write of
// a sub-box; a write takes its values from the value pool at off, moved
// by rwLapShift on every lap of the stream.
type rwOp struct {
	write bool
	dom   core.Domain
	off   int
}

const (
	// rwRing is the length of each client's operation stream.
	rwRing = 2048
	// rwMaxBox caps a sub-box at two pages of elements.
	rwMaxBox = 2 * rwPage1 * rwPage2 * rwPage3
	// rwPoolLen is the number of distinct values writes draw from.
	rwPoolLen = 1 << 20
	// rwLapShift moves a write's window into the pool on every lap of
	// its stream. It is below the room any window has to move in
	// (rwPoolLen - rwMaxBox + 1), so consecutive laps never share a
	// window.
	rwLapShift = 7919
)

// rwInputs generates client's stream inside its half (half, in global
// coordinates): 70% reads, 30% writes, each over a sub-box whose extent
// along every axis is log-uniform between one element and the half's
// extent, so boxes run from single elements to several pages.
func rwInputs(seed int64, client int, half core.Domain) []rwOp {
	r := rngFor(seed, "array-rw", client)
	ops := make([]rwOp, rwRing)
	for i := range ops {
		var lo, hi [3]int
		for {
			size := 1
			for x := 0; x < 3; x++ {
				ext := half.Hi[x] - half.Lo[x]
				n := logUniform(r, ext)
				lo[x] = half.Lo[x] + r.Intn(ext-n+1)
				hi[x] = lo[x] + n
				size *= n
			}
			if size <= rwMaxBox {
				break
			}
		}
		dom := core.NewDomain(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
		op := rwOp{write: r.Intn(10) < 3, dom: dom}
		op.off = r.Intn(rwPoolLen - dom.Size() + 1)
		ops[i] = op
	}
	return ops
}

// logUniform draws an integer in [1, max] whose octave is uniform:
// each power-of-two range below max is equally likely.
func logUniform(r *rand.Rand, max int) int {
	lo := 1 << r.Intn(bits.Len(uint(max)))
	hi := 2*lo - 1
	if hi > max {
		hi = max
	}
	return lo + r.Intn(hi-lo+1)
}

// rwPool generates the values writes draw from.
func rwPool(seed int64) []float64 {
	r := rngFor(seed, "array-rw/values", 0)
	p := make([]float64, rwPoolLen)
	for i := range p {
		p[i] = r.NormFloat64()
	}
	return p
}
