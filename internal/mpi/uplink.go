// The telemetry uplink: a dedicated child→parent side channel of a
// multi-process run, carrying journal events, comm-stats snapshots, and
// the final per-rank telemetry section from each rank process to the
// launcher. It reuses the mesh's frame format (frameHeader, same
// little-endian fixed-width codec) on its own connection, with its own
// control-tag space, so nothing here ever contends with algorithm
// traffic.
//
// The child side never blocks the rank's hot path: live frames go
// through a bounded ring (Offer drops when full and counts the drop),
// and only the final lossless section — sent after the algorithm has
// finished — uses a blocking Send. The parent side answers each child's
// frames and periodically pings it; each ping/pong pair yields a clock
// sample (offset at the RTT midpoint) from which package obs estimates
// the rank's clock offset and aligns its timestamps onto the parent's
// timeline.
package mpi

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Uplink frame tags. Data tags are positive (the mesh's user tags never
// appear on this channel); control tags are negative, mirroring the
// mesh convention.
const (
	// UplinkTagEvent carries one binary-encoded journal StreamEvent
	// (see obs.EncodeStreamEvent).
	UplinkTagEvent = 1
	// UplinkTagStats carries a JSON comm-stats + transport snapshot.
	UplinkTagStats = 2
	// UplinkTagSection carries the final JSON per-rank telemetry
	// section (lossless; sent blocking after the run).
	UplinkTagSection = 3

	uplinkTagHello = -2 // child→parent handshake (magic, size, rank, version)
	uplinkTagPing  = -3 // parent→child: seq (u64) + parent send stamp (i64)
	uplinkTagPong  = -4 // child→parent: ping payload echoed; header sentAt = child clock
	uplinkTagBye   = -5 // child→parent: clean end of stream; payload = ring drop count (i64)
)

// uplinkMagic identifies a dinfomap telemetry uplink; the low bytes
// spell "dnfouplk".
const uplinkMagic = 0x64_6e_66_6f_75_70_6c_6b

// DefaultUplinkRing is the default capacity of the child-side send
// ring. At ~100 bytes per event frame this bounds buffered telemetry to
// about a megabyte per rank.
const DefaultUplinkRing = 8192

// defaultUplinkPing is the steady-state ping cadence; the initial
// burst (uplinkPingBurst pings spaced uplinkBurstGap apart) gives the
// offset estimator samples before the first events arrive.
const (
	defaultUplinkPing = 500 * time.Millisecond
	uplinkPingBurst   = 8
	uplinkBurstGap    = 2 * time.Millisecond
)

// UplinkConfig wires one rank's telemetry uplink.
type UplinkConfig struct {
	Rank int // this rank's id
	Size int // world size (verified against the parent's expectation)
	// Epoch is the shared zero point of all stamps — the same epoch the
	// launcher gives the mesh transport, so uplink stamps and mesh
	// stamps live on one per-process timeline. Zero means "now".
	Epoch time.Time
	// Version is this build's identity; verified like the mesh
	// handshake. Empty disables the check.
	Version string
	// Ring is the send-ring capacity; <= 0 means DefaultUplinkRing.
	Ring int
	// DialTimeout bounds the dial + handshake; <= 0 means
	// DefaultConnectTimeout.
	DialTimeout time.Duration
}

type uplinkFrame struct {
	tag     int
	payload []byte
}

// Uplink is the child-process end of the telemetry side channel.
// Offer is the hot-path entry point: non-blocking, bounded, counts
// drops. A writer goroutine drains the ring onto the socket; a reader
// goroutine answers the parent's clock pings.
type Uplink struct {
	pc    *peerConn
	epoch time.Time

	ch    chan uplinkFrame
	drops atomic.Int64
	dead  atomic.Bool // write side failed: keep draining, stop writing

	closed     sync.Once
	writerDone chan struct{}
	readerDone chan struct{}
}

// DialUplink connects to the parent's uplink listener, handshakes, and
// starts the writer/reader goroutines. The caller streams with Offer,
// then Flush + Send(UplinkTagSection, ...) + Close at the end of the
// run.
func DialUplink(network, addr string, cfg UplinkConfig) (*Uplink, error) {
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = DefaultConnectTimeout
	}
	epoch := cfg.Epoch
	if epoch.IsZero() {
		epoch = time.Now()
	}
	ring := cfg.Ring
	if ring <= 0 {
		ring = DefaultUplinkRing
	}
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d uplink dial %s: %w", cfg.Rank, addr, err)
	}
	pc := &peerConn{c: conn}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		//dinfomap:close-ok handshake failed before any telemetry was sent
		conn.Close()
		return nil, fmt.Errorf("mpi: rank %d uplink deadline: %w", cfg.Rank, err)
	}
	if err := pc.writeFrame(uplinkTagHello, 0, encodeHello(uplinkMagic, hello{cfg.Size, cfg.Rank, cfg.Version})); err != nil {
		//dinfomap:close-ok handshake failed before any telemetry was sent
		conn.Close()
		return nil, fmt.Errorf("mpi: rank %d uplink hello: %w", cfg.Rank, err)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		//dinfomap:close-ok handshake failed before any telemetry was sent
		conn.Close()
		return nil, fmt.Errorf("mpi: rank %d uplink clearing deadline: %w", cfg.Rank, err)
	}
	u := &Uplink{
		pc:         pc,
		epoch:      epoch,
		ch:         make(chan uplinkFrame, ring),
		writerDone: make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	go u.writer()
	go u.reader()
	return u, nil
}

// Now is this process's stamp clock: nanoseconds since the shared epoch.
func (u *Uplink) Now() time.Duration { return time.Since(u.epoch) }

// Offer enqueues one frame for asynchronous delivery. It never blocks:
// when the ring is full (or the connection has already failed) the
// frame is dropped and counted. The payload is not copied — callers
// hand over ownership.
func (u *Uplink) Offer(tag int, payload []byte) bool {
	if u.dead.Load() {
		u.drops.Add(1)
		return false
	}
	select {
	case u.ch <- uplinkFrame{tag: tag, payload: payload}:
		return true
	default:
		u.drops.Add(1)
		return false
	}
}

// Send writes one frame synchronously, bypassing the ring. Used for
// the final telemetry section, after the algorithm has finished and
// blocking no longer matters.
func (u *Uplink) Send(tag int, payload []byte) error {
	if u.dead.Load() {
		return fmt.Errorf("mpi: uplink connection already failed")
	}
	return u.pc.writeFrame(tag, u.Now(), payload)
}

// Drops reports how many frames Offer has discarded so far.
func (u *Uplink) Drops() int64 { return u.drops.Load() }

// Flush waits until the ring has drained (or the connection has died).
// Call before Send so the final section orders after all live frames.
func (u *Uplink) Flush() {
	for len(u.ch) > 0 && !u.dead.Load() {
		time.Sleep(time.Millisecond)
	}
}

// Close drains the ring, sends the bye frame carrying the final drop
// count, and tears the connection down. Idempotent; never blocks
// indefinitely (writes run under a short deadline).
func (u *Uplink) Close() {
	u.closed.Do(func() {
		close(u.ch)
		// The deadline also bounds a writer mid-Write against a stalled
		// parent: the blocked write times out, the writer marks the
		// uplink dead and drains, and Close returns instead of hanging.
		_ = u.pc.c.SetWriteDeadline(time.Now().Add(2 * time.Second))
		<-u.writerDone
		if !u.dead.Load() {
			_ = u.pc.c.SetWriteDeadline(time.Now().Add(2 * time.Second))
			e := NewEncoder(8)
			e.PutI64(u.drops.Load())
			_ = u.pc.writeFrame(uplinkTagBye, u.Now(), e.Bytes())
		}
		//dinfomap:close-ok bye frame (or a dead conn) already ended the stream
		u.pc.c.Close()
		<-u.readerDone
	})
}

// writer drains the ring onto the socket. On a write error it marks
// the uplink dead but keeps draining, so Offer backpressure never
// appears and Close never blocks on a stuck socket.
func (u *Uplink) writer() {
	defer close(u.writerDone)
	for f := range u.ch {
		if u.dead.Load() {
			continue
		}
		if err := u.pc.writeFrame(f.tag, u.Now(), f.payload); err != nil {
			u.dead.Store(true)
		}
	}
}

// reader answers the parent's clock pings: the ping payload comes back
// verbatim under the pong tag, and the frame header's sentAt stamp
// carries this process's clock at echo time — everything the parent
// needs for an RTT-midpoint offset sample. writeFrame's mutex
// serializes echoes with the writer goroutine.
func (u *Uplink) reader() {
	defer close(u.readerDone)
	hdr := make([]byte, frameHeader)
	for {
		// A frame over 4096 bytes is not a sane control frame: stop
		// echoing.
		tag, _, payload, err := readFrame(u.pc.c, hdr, 4096)
		if err != nil {
			return
		}
		if tag != uplinkTagPing || u.dead.Load() {
			continue
		}
		if err := u.pc.writeFrame(uplinkTagPong, u.Now(), payload); err != nil {
			u.dead.Store(true)
		}
	}
}

// ClockSample is one ping/pong measurement of a child's clock as seen
// from the parent. Offset is (child clock − parent clock) estimated at
// the RTT midpoint; RTT is the round-trip time; At is the parent clock
// when the pong arrived. Both clocks count from the same launcher-
// chosen wall epoch, so offsets are small residuals (scheduling delay,
// wall-clock drift), not absolute time-of-day differences.
type ClockSample struct {
	Offset time.Duration
	RTT    time.Duration
	At     time.Duration
}

// UplinkHandler receives a connected child's telemetry on the parent
// side. Calls for one rank arrive from that rank's single Serve
// goroutine, in stream order; calls for different ranks are concurrent.
type UplinkHandler interface {
	// HandleSample delivers one clock sample for rank.
	HandleSample(rank int, s ClockSample)
	// HandleFrame delivers one data frame (UplinkTagEvent/Stats/
	// Section). sentAt is the child's send stamp, unaligned.
	HandleFrame(rank, tag int, sentAt time.Duration, payload []byte)
}

// UplinkPeer is the parent-process end of one child's uplink.
type UplinkPeer struct {
	pc    *peerConn
	rank  int
	size  int
	ver   string
	epoch time.Time

	drops atomic.Int64 // child-reported ring drops (from the bye frame)
}

// AcceptUplink handshakes a freshly accepted uplink connection and
// returns the peer. size <= 0 skips the world-size check; version ""
// skips the build check — mirroring the mesh handshake rules.
func AcceptUplink(conn net.Conn, size int, epoch time.Time, version string, timeout time.Duration) (*UplinkPeer, error) {
	if timeout <= 0 {
		timeout = DefaultConnectTimeout
	}
	if epoch.IsZero() {
		epoch = time.Now()
	}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, fmt.Errorf("mpi: uplink accept deadline: %w", err)
	}
	h, err := readHello(conn, uplinkTagHello, uplinkMagic)
	if err != nil {
		return nil, fmt.Errorf("mpi: uplink %w", err)
	}
	if size > 0 && h.size != size {
		return nil, &handshakeMismatch{fmt.Sprintf("uplink rank %d believes world size is %d, launcher has %d", h.rank, h.size, size)}
	}
	if version != "" && h.version != "" && h.version != version {
		return nil, &handshakeMismatch{fmt.Sprintf("uplink build mismatch: rank %d runs %q, launcher runs %q", h.rank, h.version, version)}
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return nil, fmt.Errorf("mpi: clearing uplink accept deadline: %w", err)
	}
	return &UplinkPeer{pc: &peerConn{c: conn}, rank: h.rank, size: h.size, ver: h.version, epoch: epoch}, nil
}

// Rank returns the child's rank id.
func (p *UplinkPeer) Rank() int { return p.rank }

// Version returns the child's reported build identity.
func (p *UplinkPeer) Version() string { return p.ver }

// Drops returns the child-reported ring drop count, valid after Serve
// has returned cleanly (it arrives on the bye frame).
func (p *UplinkPeer) Drops() int64 { return p.drops.Load() }

// Close tears the connection down; safe to call concurrently with
// Serve (it unblocks the read loop).
func (p *UplinkPeer) Close() {
	//dinfomap:close-ok either the bye frame already ended the stream or the caller is force-unwinding
	p.pc.c.Close()
}

func (p *UplinkPeer) now() time.Duration { return time.Since(p.epoch) }

// Serve runs this peer's read loop, dispatching frames to h, until the
// child says bye (nil) or the connection drops (the read error). A
// pinger goroutine measures the child's clock for the whole duration:
// an initial burst gives the estimator samples immediately, then a
// steady cadence (pingEvery; <= 0 means the default) tracks drift.
func (p *UplinkPeer) Serve(h UplinkHandler, pingEvery time.Duration) error {
	if pingEvery <= 0 {
		pingEvery = defaultUplinkPing
	}
	stop := make(chan struct{})
	defer close(stop)
	go p.pinger(stop, pingEvery)

	hdr := make([]byte, frameHeader)
	for {
		tag, sentAt, payload, err := readFrame(p.pc.c, hdr, maxFrame)
		if err != nil {
			return fmt.Errorf("mpi: uplink rank %d: %w", p.rank, err)
		}
		switch tag {
		case uplinkTagPong:
			if len(payload) != 16 {
				continue
			}
			d := NewDecoder(payload)
			_ = d.U64() // seq: unused beyond echo integrity
			t0 := time.Duration(d.I64())
			t1 := p.now()
			h.HandleSample(p.rank, ClockSample{
				Offset: sentAt - (t0+t1)/2,
				RTT:    t1 - t0,
				At:     t1,
			})
		case uplinkTagBye:
			if len(payload) == 8 {
				p.drops.Store(NewDecoder(payload).I64())
			}
			return nil
		default:
			h.HandleFrame(p.rank, tag, sentAt, payload)
		}
	}
}

// pinger sends clock pings until stop closes or a write fails. Writes
// share the peerConn mutex with nothing (the parent only ever writes
// pings on this connection), but go through writeFrame for uniformity.
func (p *UplinkPeer) pinger(stop <-chan struct{}, every time.Duration) {
	var seq uint64
	ping := func() bool {
		e := NewEncoder(16)
		e.PutU64(seq)
		seq++
		e.PutI64(int64(p.now()))
		return p.pc.writeFrame(uplinkTagPing, 0, e.Bytes()) == nil
	}
	for i := 0; i < uplinkPingBurst; i++ {
		if !ping() {
			return
		}
		select {
		case <-stop:
			return
		case <-time.After(uplinkBurstGap):
		}
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if !ping() {
				return
			}
		}
	}
}
