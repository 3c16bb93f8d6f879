package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
)

// TestFleetRefusesOldProtocol: a worker whose hello names the previous
// protocol version is refused at the handshake, before it gets the
// config or a lease. Version 1 shipped a corpus delta in every result,
// and a version-1 coordinator drops a result without one, then re-issues
// its lease forever; a fleet that mixes the versions must fail here
// instead.
func TestFleetRefusesOldProtocol(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Run: testRun(), Seeds: 8})
	if err != nil {
		t.Fatal(err)
	}
	coordEnd, workerEnd := net.Pipe()
	handled := make(chan error, 1)
	go func() { handled <- coord.HandleConn(context.Background(), coordEnd) }()
	old := &Hello{Worker: "old", Proto: ProtoVersion - 1}
	if err := writeMsg(workerEnd, &Envelope{Type: MsgHello, Hello: old}); err != nil {
		t.Fatal(err)
	}
	if env, err := readMsg(workerEnd); err == nil {
		t.Errorf("a protocol-%d worker was sent a %q frame", old.Proto, env.Type)
	}
	workerEnd.Close() // ends the conversation if the hello was accepted
	want := fmt.Sprintf("speaks protocol %d, want %d", old.Proto, ProtoVersion)
	if err := <-handled; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("coordinator handled a protocol-%d hello with %v, want a refusal", old.Proto, err)
	}
	if st := coord.Status(); st.LeasesInflight != 0 {
		t.Errorf("%d leases issued to a refused worker", st.LeasesInflight)
	}
}

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
// from a real lease), a truncated frame, a zero length and a length
// above maxMsgBytes. The result seed is a protocol-1 frame: its "delta"
// and "worker" fields now decode as unknown fields, which the decoder
// skips, so the seed still reaches the re-framing path.
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
