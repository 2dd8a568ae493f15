package core

import (
	"bytes"
	"testing"

	"oopp/internal/wire"
)

// FuzzDecodePageMap feeds the persisted placement-table decoder
// arbitrary bytes. The seed corpus in testdata/fuzz holds encodings of
// the four base layouts, their k=2 replications, failover- and
// migration-edited tables, and truncations of them. Decoding must never
// panic, and a table it accepts must re-encode to the bytes it read.
// The decoder also accepts varints padded past their minimal length,
// which encode never writes, so the re-encoding may be shorter than the
// input; when it is as long, it is the same bytes. The re-encoding
// itself must round-trip exactly.
func FuzzDecodePageMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		d := wire.NewDecoder(in)
		pm, err := decodePageMap(d)
		if err != nil {
			return
		}
		read := in[:len(in)-d.Remaining()]
		e := wire.NewEncoder(len(read))
		pm.encode(e)
		out := e.Bytes()
		if len(out) > len(read) || len(out) == len(read) && !bytes.Equal(out, read) {
			t.Fatalf("decoded %x, re-encoded %x", read, out)
		}
		d2 := wire.NewDecoder(out)
		pm2, err := decodePageMap(d2)
		if err != nil || d2.Remaining() != 0 {
			t.Fatalf("re-encoding %x: %v, %d bytes left over", out, err, d2.Remaining())
		}
		e2 := wire.NewEncoder(len(out))
		pm2.encode(e2)
		if !bytes.Equal(e2.Bytes(), out) {
			t.Fatalf("re-encoding %x decodes and encodes to %x", out, e2.Bytes())
		}
	})
}
