package query

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/types"
)

// keyDecoder reads predicates and tuples from fuzz bytes. Exhausted input
// reads as zeros, so every byte string decodes.
type keyDecoder struct{ data []byte }

func (d *keyDecoder) byte() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// float is a keyVals entry, or — for a 0xff tag — the next 8 bytes' raw
// bits, so arbitrary NaN payloads and subnormals reach the renderer too.
func (d *keyDecoder) float() float64 {
	b := d.byte()
	if b == 0xff && len(d.data) >= 8 {
		f := math.Float64frombits(binary.LittleEndian.Uint64(d.data))
		d.data = d.data[8:]
		return f
	}
	return keyVals[int(b)%len(keyVals)]
}

// FuzzQueryKey checks the canonical query key against the map-based
// reference: the key of a query built from decoded predicates must not
// depend on the order they were added in, must equal the fmt-based
// rendering, and Matches must agree with the reference on tuples decoded
// from the same bytes.
func FuzzQueryKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x02, 0x04, 0x01, 0x13, 0x02})
	f.Add([]byte{0x20, 0x01, 0x02, 0x21, 0x0b, 0x0a, 0x37, 0x05, 0x02, 0x03, 0x06, 0x00, 0x01})
	f.Add([]byte{0x08, 0xff, 1, 2, 3, 4, 5, 6, 0xf8, 0x7f, 0x09, 0x45, 0x11, 0x03, 0x03, 0x03, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &keyDecoder{data: data}
		ref := newRefQuery()
		for n := int(d.byte() % 8); n > 0; n-- {
			h := d.byte()
			if h&1 == 0 {
				ref.ranges[int(h>>1)%6] = types.Interval{
					Lo: d.float(), Hi: d.float(), LoOpen: h&0x40 != 0, HiOpen: h&0x80 != 0,
				}
			} else {
				ref.cats[keyNames[int(h>>1)%len(keyNames)]] = keyValues[int(h>>4)%len(keyValues)]
			}
		}

		perm := make([]int, ref.size())
		for i := range perm {
			perm[i] = i
		}
		want := ref.String()
		q := ref.build(perm)
		if got := q.String(); got != want {
			t.Fatalf("ascending insertion: key %q, reference %q", got, want)
		}
		slices.Reverse(perm)
		if got := ref.build(perm).String(); got != want {
			t.Fatalf("descending insertion: key %q, reference %q", got, want)
		}
		if len(perm) > 2 {
			rot := int(d.byte()) % len(perm)
			perm = append(perm[rot:], perm[:rot]...)
			if got := ref.build(perm).String(); got != want {
				t.Fatalf("rotated insertion: key %q, reference %q", got, want)
			}
		}

		for i := 0; i < 4; i++ {
			tp := types.Tuple{Ord: []float64{d.float(), d.float(), d.float(), d.float(), d.float(), d.float()}}
			if mask := d.byte(); mask != 0 {
				tp.Cat = map[string]string{}
				for j, n := range keyNames {
					if mask&(1<<j) != 0 {
						tp.Cat[n] = keyValues[int(mask>>5)%len(keyValues)]
					}
				}
			}
			if got, want := q.Matches(tp), ref.Matches(tp); got != want {
				t.Fatalf("%s on %v: Matches = %v, reference %v", q, tp, got, want)
			}
		}
	})
}
