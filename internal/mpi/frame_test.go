package mpi

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// frameBytes encodes one frame as writeFrame sends it, with the header's
// length field set to claim.
func frameBytes(tag int, sentAt time.Duration, payload []byte, claim uint64) []byte {
	b := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint64(b[0:], claim)
	binary.LittleEndian.PutUint64(b[8:], uint64(int64(tag)))
	binary.LittleEndian.PutUint64(b[16:], uint64(int64(sentAt)))
	return append(b, payload...)
}

// pipeSendingThenClose returns one end of an in-memory connection whose
// other end sends frame, then hangs up; whatever the near end writes
// is discarded.
func pipeSendingThenClose(t *testing.T, frame []byte) net.Conn {
	t.Helper()
	near, far := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, far) }()
	go func() {
		_, _ = far.Write(frame)
		//dinfomap:close-ok in-memory test pipe
		far.Close()
	}()
	t.Cleanup(func() {
		//dinfomap:close-ok in-memory test pipe
		near.Close()
	})
	return near
}

// allocatedBy returns the bytes f allocates, as TotalAlloc counts them.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A 24-byte header claiming 2^31 payload bytes, then a hang-up, must be
// an error without the reader allocating what the header claims: both
// the mesh reader's and the launcher's uplink frame loop go through
// readFrame.
func TestOversizedFrameHeaderAllocatesLittle(t *testing.T) {
	const budget = 8 << 20
	frame := frameBytes(7, 0, nil, maxFrame)
	hdr := make([]byte, frameHeader)
	var err error
	if got := allocatedBy(func() {
		_, _, _, err = readFrame(pipeSendingThenClose(t, frame), hdr, maxFrame)
	}); got > budget {
		t.Errorf("readFrame allocated %d bytes for an empty 2^31-byte frame", got)
	}
	if err == nil {
		t.Error("readFrame accepted a truncated 2^31-byte frame")
	}

	peer := &UplinkPeer{pc: &peerConn{c: pipeSendingThenClose(t, frame)}, epoch: time.Now()}
	if got := allocatedBy(func() {
		err = peer.Serve(&collectingHandler{}, time.Hour)
	}); got > budget {
		t.Errorf("UplinkPeer.Serve allocated %d bytes for an empty 2^31-byte frame", got)
	}
	if err == nil {
		t.Error("UplinkPeer.Serve returned nil on a truncated 2^31-byte frame")
	}

	if _, _, _, err := readFrame(bytes.NewReader(frameBytes(7, 0, nil, maxFrame+1)), hdr, maxFrame); err == nil {
		t.Error("readFrame accepted a frame over its limit")
	}
}

// Frames written by writeFrame read back unchanged, including payloads
// that span several read chunks.
func TestReadFrameRoundTrip(t *testing.T) {
	near, far := net.Pipe()
	defer func() {
		//dinfomap:close-ok in-memory test pipe
		near.Close()
		//dinfomap:close-ok in-memory test pipe
		far.Close()
	}()
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte("0123456789"), frameChunk/4)}
	go func() {
		pc := &peerConn{c: far}
		for i, p := range payloads {
			if err := pc.writeFrame(-3-i, time.Duration(i)*time.Millisecond, p); err != nil {
				return
			}
		}
	}()
	hdr := make([]byte, frameHeader)
	for i, want := range payloads {
		tag, sentAt, got, err := readFrame(near, hdr, maxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if tag != -3-i || sentAt != time.Duration(i)*time.Millisecond || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: tag %d, sentAt %v, %d payload bytes; want %d, %v, %d",
				i, tag, sentAt, len(got), -3-i, time.Duration(i)*time.Millisecond, len(want))
		}
	}
}

// FuzzReadFrame: readFrame never panics, and a frame it accepts is the
// input's prefix, re-encoded byte for byte. Seeds live in
// testdata/fuzz/FuzzReadFrame.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		hdr := make([]byte, frameHeader)
		tag, sentAt, payload, err := readFrame(bytes.NewReader(in), hdr, maxFrame)
		if err != nil {
			return
		}
		got := frameBytes(tag, sentAt, payload, uint64(len(payload)))
		if !bytes.HasPrefix(in, got) {
			t.Fatalf("accepted frame re-encodes as %q, not a prefix of %q", got, in)
		}
	})
}
