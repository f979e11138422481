package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestCanaryFrameRoundTrips: a MsgCanaryPush (the MsgReload layout) and
// its MsgCanaryPushOK survive encode→frame→decode bit-exactly and the
// size helpers are exact.
func TestCanaryFrameRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(pipeConn{r: &buf, w: &buf})
	weights := []float64{0.5, -1.25, 3, 0.0625}

	if err := c.WriteFrame(MsgCanaryPush, func(b []byte) ([]byte, error) {
		return AppendVector(AppendReload(b, 0.07), VecF64, weights, nil, nil)
	}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != ReloadBytes(VecF64, len(weights)) {
		t.Fatalf("push frame %d bytes, ReloadBytes %d", buf.Len(), ReloadBytes(VecF64, len(weights)))
	}
	fr, err := c.ReadFrame()
	if err != nil || fr.Type != MsgCanaryPush {
		t.Fatalf("read push: %v %v", fr.Type, err)
	}
	thr, rest, err := ParseReload(fr.Payload)
	if err != nil || thr != 0.07 {
		t.Fatalf("parse push: thr %v err %v", thr, err)
	}
	dec, _, err := DecodeVector(rest, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range weights {
		if dec[i] != weights[i] {
			t.Fatalf("weight %d: %v != %v", i, dec[i], weights[i])
		}
	}

	buf.Reset()
	if err := c.WriteFrame(MsgCanaryPushOK, func(b []byte) ([]byte, error) {
		return AppendCanaryPushOK(b, 42)
	}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != CanaryPushOKBytes() {
		t.Fatalf("pushOK frame %d bytes, want %d", buf.Len(), CanaryPushOKBytes())
	}
	if fr, err = c.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if gen, err := ParseCanaryPushOK(fr.Payload); err != nil || gen != 42 {
		t.Fatalf("parse pushOK: gen %d err %v", gen, err)
	}
}

// TestCanaryParseRejections: a malformed staging answer fails with
// ErrMalformed instead of panicking or decoding garbage.
func TestCanaryParseRejections(t *testing.T) {
	for _, p := range [][]byte{nil, make([]byte, 7)} {
		if _, err := ParseCanaryPushOK(p); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%d-byte pushOK: %v", len(p), err)
		}
	}
}
