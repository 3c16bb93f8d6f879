package fleet

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// A peer that declares a large frame and then hangs up must cost only
// the bytes it sent: readMsg may not allocate the declared length up
// front, before any body byte has arrived.
func TestReadMsgAllocatesOnlyWhatArrives(t *testing.T) {
	const declared = 200 << 20
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], declared)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	env, err := readMsg(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a header without its body decoded to %+v", env)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("a header declaring %d MiB and no body allocated %.1f MiB; want under 1 MiB",
			declared>>20, float64(got)/(1<<20))
	}
}

// FuzzReadMsg: any byte stream either fails to decode, or decodes to an
// envelope that writeMsg re-frames and readMsg decodes back to an
// envelope that frames to the same bytes.
//
// Seeds are under testdata/fuzz/FuzzReadMsg: one frame of each message
// type (the config built from testRun, the result carrying one finding
// and a corpus delta from a real lease), a truncated frame, a zero
// length and a length above maxMsgBytes.
func FuzzReadMsg(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := readMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := writeMsg(&first, env); err != nil {
			t.Fatalf("re-framing a decoded envelope: %v", err)
		}
		again, err := readMsg(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a re-framed envelope does not decode: %v\nframe: %q", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := writeMsg(&second, again); err != nil {
			t.Fatalf("re-framing the second decode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("frame changed across a decode/encode round trip:\nfirst:  %q\nsecond: %q",
				first.Bytes(), second.Bytes())
		}
	})
}
