package main

// Direct probes of the layers below RMI: wire encode/decode, the buffer
// pool and raw transport round trips, each timed on the frame shapes of
// the workload that reports it.

import (
	"fmt"
	"time"

	"oopp/internal/bufpool"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// probeBatches is how many batches a direct probe times; it reports the
// median batch.
const probeBatches = 5

// wireCost times encoding a frame with encode and decoding it with
// decode, in ns per frame (median of batches of n).
func wireCost(n int, encode func(e *wire.Encoder), decode func(d *wire.Decoder) error) (encNs, decNs float64, err error) {
	e := wire.GetEncoder(64)
	encode(e)
	frame := append([]byte(nil), e.Bytes()...)
	wire.PutEncoder(e)

	var encs, decs []float64
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			e := wire.GetEncoder(len(frame))
			encode(e)
			wire.PutEncoder(e)
		}
		encs = append(encs, float64(time.Since(start).Nanoseconds())/float64(n))

		start = time.Now()
		for i := 0; i < n; i++ {
			if err := decode(wire.NewDecoder(frame)); err != nil {
				return 0, 0, fmt.Errorf("decode probe frame: %w", err)
			}
		}
		decs = append(decs, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(encs), median(decs), nil
}

// bufpoolCost times a Get/Put pair for each size, in ns per pair
// averaged over the sizes (median of batches of n per size).
func bufpoolCost(n int, sizes []int) float64 {
	var per []float64
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for _, size := range sizes {
			for i := 0; i < n; i++ {
				bufpool.Put(bufpool.GetLen(size))
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n*len(sizes)))
	}
	return median(per)
}

// tcpRTT measures raw transport.TCP round trips of size-byte frames on
// loopback, with no RMI layer: one side echoes every frame back. It
// returns the median in µs over rounds round trips.
func tcpRTT(size, rounds int) (float64, error) {
	var tr transport.TCP
	ln, err := tr.Listen("")
	if err != nil {
		return 0, err
	}
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		for {
			m, err := c.Recv()
			if err != nil {
				served <- nil // the dialer closed the connection
				return
			}
			if err := c.Send(m); err != nil {
				served <- err
				return
			}
		}
	}()
	c, err := tr.Dial(ln.Addr())
	if err != nil {
		ln.Close()
		<-served
		return 0, err
	}
	warmRounds := rounds / 10
	lat := make([]float64, 0, rounds)
	var rerr error
	for i := 0; i < warmRounds+rounds; i++ {
		msg := transport.GetFrame(size)
		start := time.Now()
		if rerr = c.Send(msg); rerr != nil {
			break
		}
		m, err := c.Recv()
		if err != nil {
			rerr = err
			break
		}
		d := time.Since(start)
		transport.ReleaseFrame(m)
		if i >= warmRounds {
			lat = append(lat, d.Seconds()*1e6)
		}
	}
	c.Close()
	serr := <-served
	ln.Close()
	if rerr != nil {
		return 0, fmt.Errorf("tcp round trip: %w", rerr)
	}
	if serr != nil {
		return 0, fmt.Errorf("tcp echo side: %w", serr)
	}
	return median(lat), nil
}
