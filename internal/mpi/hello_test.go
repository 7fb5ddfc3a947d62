package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// helloPayload builds a hello payload field by field, so a case can
// set any field to a value a real peer never sends.
func helloPayload(magic uint64, size, rank, verLen int64, version string) []byte {
	e := NewEncoder(64)
	e.PutU64(magic)
	e.PutI64(size)
	e.PutI64(rank)
	e.PutI64(verLen)
	return append(e.Bytes(), version...)
}

// helloFrame wraps payload in a frame header carrying tag. A negative
// claimLen replaces the header's length field with -claimLen while
// still sending only the payload.
func helloFrame(tag int, payload []byte, claimLen int) []byte {
	n := uint64(len(payload))
	if claimLen < 0 {
		n = uint64(-claimLen)
	}
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint64(hdr[0:], n)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(int64(tag)))
	return append(hdr, payload...)
}

// pipeSending returns one end of an in-memory connection whose other
// end sends frame and discards whatever the handshake sends back.
func pipeSending(t *testing.T, frame []byte) net.Conn {
	t.Helper()
	near, far := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, far) }()
	go func() { _, _ = far.Write(frame) }()
	t.Cleanup(func() {
		//dinfomap:close-ok in-memory test pipe
		near.Close()
		//dinfomap:close-ok in-memory test pipe
		far.Close()
	})
	return near
}

// TestMalformedHelloIsAnError feeds malformed hello frames to both
// handshake entry points, the mesh accept side and the launcher's
// uplink accept. Each must come back as a *handshakeMismatch, never a
// panic; a well-formed hello must still pass both.
func TestMalformedHelloIsAnError(t *testing.T) {
	const size = 4
	cases := []struct {
		name     string
		payload  func(magic uint64) []byte
		claimLen int
		ok       bool
	}{
		{name: "valid", ok: true, payload: func(m uint64) []byte { return helloPayload(m, size, 1, 2, "v1") }},
		{name: "empty payload", payload: func(uint64) []byte { return nil }},
		{name: "truncated header", payload: func(m uint64) []byte { return helloPayload(m, size, 1, 2, "v1")[:20] }},
		{name: "version length past end", payload: func(m uint64) []byte { return helloPayload(m, size, 1, 100, "v1") }},
		{name: "version length short", payload: func(m uint64) []byte { return helloPayload(m, size, 1, 1, "v1") }},
		{name: "negative version length", payload: func(m uint64) []byte { return helloPayload(m, size, 1, -1, "v1") }},
		{name: "negative rank", payload: func(m uint64) []byte { return helloPayload(m, size, -1, 2, "v1") }},
		{name: "rank past size", payload: func(m uint64) []byte { return helloPayload(m, size, size, 2, "v1") }},
		{name: "negative size", payload: func(m uint64) []byte { return helloPayload(m, -size, 1, 2, "v1") }},
		{name: "foreign magic", payload: func(m uint64) []byte { return helloPayload(m^1, size, 1, 2, "v1") }},
		{name: "frame over limit", claimLen: -(1 << 20), payload: func(uint64) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(side string, err error) {
				t.Helper()
				if tc.ok {
					if err != nil {
						t.Errorf("%s: valid hello rejected: %v", side, err)
					}
					return
				}
				var hm *handshakeMismatch
				if !errors.As(err, &hm) {
					t.Errorf("%s: error = %v, want a handshake mismatch", side, err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)

			conn := pipeSending(t, helloFrame(tagHello, tc.payload(handshakeMagic), tc.claimLen))
			var pt ProcTransport
			_, err := pt.handshake(conn, ProcConfig{Rank: 0, Size: size}, AnySource, deadline)
			check("mesh handshake", err)

			conn = pipeSending(t, helloFrame(uplinkTagHello, tc.payload(uplinkMagic), tc.claimLen))
			_, err = AcceptUplink(conn, size, time.Now(), "", 5*time.Second)
			check("uplink accept", err)
		})
	}
}

// FuzzDecodeHello: decodeHello never panics, rejects with a
// *handshakeMismatch, and any payload it accepts re-encodes to the
// same bytes. Seeds live in testdata/fuzz/FuzzDecodeHello.
func FuzzDecodeHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		for _, magic := range []uint64{handshakeMagic, uplinkMagic} {
			h, err := decodeHello(magic, buf)
			if err != nil {
				var hm *handshakeMismatch
				if !errors.As(err, &hm) {
					t.Fatalf("decodeHello error %v is not a handshake mismatch", err)
				}
				continue
			}
			if got := encodeHello(magic, h); !bytes.Equal(got, buf) {
				t.Fatalf("accepted %q re-encodes as %q", buf, got)
			}
		}
	})
}
