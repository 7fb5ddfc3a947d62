package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The hello frame opens both links of a multi-process run: the mesh
// connection between two ranks (handshakeMagic) and each child's
// telemetry uplink to the launcher (uplinkMagic). Its payload is the
// magic, the world size, the sender's rank, the version length and the
// version bytes, all in the fixed-width codec. It comes off a socket,
// so decodeHello checks every field and returns an error, never panics.

// helloHeader is the fixed part of a hello payload: magic, size, rank
// and version length.
const helloHeader = 32

// maxHello bounds a hello payload; a longer frame is not a dinfomap peer.
const maxHello = 4096

// hello is the identity a peer announces when it connects.
type hello struct {
	size, rank int
	version    string
}

// encodeHello returns the hello payload of h under magic.
func encodeHello(magic uint64, h hello) []byte {
	e := NewEncoder(helloHeader + len(h.version))
	e.PutU64(magic)
	e.PutInt(h.size)
	e.PutInt(h.rank)
	e.PutInt(len(h.version))
	return append(e.Bytes(), h.version...)
}

// decodeHello parses a hello payload. A short payload, a foreign magic,
// a version length that does not match the bytes that follow, or a
// rank outside [0, size) is a *handshakeMismatch. Any payload it
// accepts re-encodes byte-identically.
func decodeHello(magic uint64, buf []byte) (hello, error) {
	if len(buf) < helloHeader {
		return hello{}, &handshakeMismatch{fmt.Sprintf("short hello: %d bytes", len(buf))}
	}
	d := NewDecoder(buf)
	if got := d.U64(); got != magic {
		return hello{}, &handshakeMismatch{fmt.Sprintf("bad hello magic %#x", got)}
	}
	size, rank, n := d.I64(), d.I64(), d.I64()
	if n != int64(d.Remaining()) {
		return hello{}, &handshakeMismatch{fmt.Sprintf("hello version length %d, but %d bytes follow", n, d.Remaining())}
	}
	if size < 1 || rank < 0 || rank >= size {
		return hello{}, &handshakeMismatch{fmt.Sprintf("hello from rank %d of world size %d", rank, size)}
	}
	return hello{size: int(size), rank: int(rank), version: string(buf[helloHeader:])}, nil
}

// readHello reads one hello frame carrying tag and decodes it under
// magic. I/O errors come back wrapped as they are, so a dialer can
// retry a peer that is still starting up; a frame that is not a
// well-formed hello is a *handshakeMismatch.
func readHello(r io.Reader, tag int, magic uint64) (hello, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return hello{}, fmt.Errorf("reading hello header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[0:])
	if got := int(int64(binary.LittleEndian.Uint64(hdr[8:]))); got != tag || n > maxHello {
		return hello{}, &handshakeMismatch{fmt.Sprintf("bad hello frame (tag=%d, len=%d)", got, n)}
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return hello{}, fmt.Errorf("reading hello: %w", err)
	}
	return decodeHello(magic, buf)
}
