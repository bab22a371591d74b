// Package rpc implements vRPC (§5.4): an RPC library that speaks the
// SunRPC wire protocol (XDR-encoded call and reply messages, unchanged
// stub interface) but replaces the UDP/TCP network layer with VMMC.
//
// The design follows the paper's two optimizations: the network layer is
// reimplemented directly on VMMC (client and server export receive
// windows to each other and deliberate updates deposit whole RPC messages
// into them), and several OS-socket layers collapse into one thin layer.
// Full SunRPC compatibility costs one copy on every message receive — out
// of the exported window into the XDR decode buffer — which is what caps
// vRPC bandwidth below raw VMMC (§5.4).
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmmc"
	"repro/internal/xdr"
)

// Handler serves one RPC procedure: decode arguments, encode results, and
// return an accept status (xdr.AcceptSuccess on success).
type Handler func(p *sim.Proc, args *xdr.Decoder, results *xdr.Encoder) uint32

// Errors.
var (
	ErrBadSlot     = errors.New("rpc: slot out of range")
	ErrTooBig      = errors.New("rpc: message exceeds slot size")
	ErrProcUnavail = errors.New("rpc: procedure unavailable")
	ErrGarbage     = errors.New("rpc: garbage arguments")
	ErrSystem      = errors.New("rpc: server system error")

	// ErrRPCTimeout is returned by CallDeadline when the deadline passes
	// with no reply in the window — the server is dead, partitioned, or
	// hopelessly behind. The connection stays usable: the next call first
	// drains any late reply to the abandoned request.
	ErrRPCTimeout = errors.New("rpc: call timed out")
	// ErrDeadlineExceeded is the server telling the client its budget ran
	// out before the handler executed; retrying is pointless because a
	// retry starts even later.
	ErrDeadlineExceeded = errors.New("rpc: deadline exceeded at server")
	// ErrOverloaded is the server shedding load at admission; the request
	// was rejected cheaply without being served and may be retried
	// (subject to the caller's retry budget).
	ErrOverloaded = errors.New("rpc: server overloaded")
)

// Slot geometry: [4B length][payload][4B sequence flag]. The sequence
// flag trails the payload, so with VMMC's in-order chunk delivery its
// arrival means the whole message is present.
const (
	// SlotBytes is each direction's per-client message window.
	SlotBytes = 128 << 10
	slotMax   = SlotBytes - 8

	reqTagBase = 0xF000
	repTagBase = 0xF100

	// deadlineFlag marks the reply-tag trailer word of a request that
	// carries an 8-byte absolute-deadline extension. Legacy calls keep
	// the exact 8-byte trailer (and therefore byte-identical timing);
	// reply tags are far below bit 31, so the flag cannot collide.
	deadlineFlag = uint32(1) << 31

	// hintFlag marks the first word of a reply that carries a 16-byte
	// load-hint trailer ahead of the XDR reply message. The first word
	// of a plain reply is the XID, which the client assigns starting at
	// 1, so bit 31 is never set on a legacy reply — the same reserved-
	// bit trick the request direction uses for deadlines. Servers only
	// emit the trailer when SetLoadHints(true); disabled, every reply
	// is byte-identical to the pre-hint protocol.
	hintFlag    = uint32(1) << 31
	hintVersion = uint32(1)
	hintBytes   = 16
)

// LoadHint is a server-load sample piggybacked on a vRPC reply: the
// arrival-queue depth at reply time plus the server's cumulative shed
// and served counts, from which a client-side router derives recent-
// shed pressure. At is the client receive time of the sample.
type LoadHint struct {
	Depth  int
	Sheds  int64
	Served int64
	At     sim.Time
}

// Calibrated vRPC library costs (fitted to §5.4: 33 us round trip on
// SHRIMP, 66 us on Myrinet, where the library was not retuned).
var (
	clientStub   = sim.Micros(6.4) // stub entry, XID management, buffer setup
	serverStub   = sim.Micros(6.9) // dispatch, handler table, reply setup
	xdrFixed     = sim.Micros(1.0) // per encode/decode invocation
	xdrRate      = 80e6            // header/argument marshaling, bytes/s
	pollInterval = sim.Micros(0.4)
	// myrinetPortOverhead is the per-side cost of running the
	// SHRIMP-tuned runtime on the Myrinet interface without retuning
	// (§5.4: vRPC "was tuned for the SHRIMP hardware"): extra queue and
	// completion management in the unported fast path.
	myrinetPortOverhead = sim.Micros(11.1)
	// rejectStub is the cost of refusing a request at admission: parse
	// the header, encode the one-word error reply. Deliberately far
	// below a full dispatch — shedding must be cheaper than serving or
	// admission control cannot shed its way out of overload.
	rejectStub = sim.Micros(2.0)
)

// ReplyGrace is how long past its deadline a CallDeadline client
// lingers for the server's verdict before declaring ErrRPCTimeout. A
// server that notices the expiry promptly gets its typed rejection
// heard (clean connection, precise error); only a server that is dead
// or hopelessly behind burns the timeout path and dirties the slot.
// Sized to cover a reject stub plus one reply transit.
var ReplyGrace = sim.Micros(25)

func xdrCost(n int) sim.Time {
	// Headers and small arguments are marshaled field by field; bulk
	// opaque data is passed through — its movement cost is the receive
	// copy, charged separately.
	if n > 1024 {
		n = 1024
	}
	return xdrFixed + sim.Time(float64(n)/xdrRate*float64(sim.Second))
}

type procKey struct{ prog, vers, proc uint32 }

// AdmitPhase distinguishes the two points where an admission policy is
// consulted: when a request is first noticed in its slot (Arrive) and
// when it reaches the head of the queue for dispatch (Serve).
type AdmitPhase int

const (
	AdmitArrive AdmitPhase = iota
	AdmitServe
)

// AdmissionFunc decides whether a request proceeds. depth counts queued
// requests including this one; waited is the time the request has spent
// queued (zero at Arrive); remaining is the budget left until the
// request's deadline, or a negative sentinel when the request carries no
// deadline. Returning false rejects the request with AcceptOverloaded.
type AdmissionFunc func(phase AdmitPhase, depth int, waited, remaining sim.Time) bool

// NoDeadline is the remaining-budget value an AdmissionFunc sees for
// requests that carry no deadline.
const NoDeadline = sim.Time(-1)

// pendingReq is one noticed-but-not-yet-served request in the server's
// FIFO arrival queue.
type pendingReq struct {
	slot     int
	arrived  sim.Time
	deadline sim.Time // 0 = none
}

// Server is a vRPC server bound to a VMMC process.
type Server struct {
	proc     *vmmc.Process
	slots    int
	reqBuf   mem.VirtAddr
	handlers map[procKey]Handler

	// Arrival queue: slots are scanned for complete requests, which are
	// noticed into this FIFO and dispatched one at a time. Noticing is
	// free (the scan was always there); serving order is arrival order
	// across slots rather than slot order, which matches what the old
	// inline scan-and-serve produced for live workloads while giving
	// admission control a queue to measure.
	noted   []bool
	pending []pendingReq
	admit   AdmissionFunc

	// zeroCopy drops SunRPC compatibility: messages are decoded in place
	// in the exported communication window, skipping the per-receive
	// bcopy and the untuned-port overhead. This is the interface §5.4
	// alludes to: "when the compatibility restriction is removed it is
	// possible to implement an RPC interface which has bandwidth close
	// to this delivered by VMMC". Both ends must agree.
	zeroCopy bool

	// Per-slot state.
	expectSeq  []uint32
	replyTo    []vmmc.ProxyAddr // established lazily on first call
	replyReady []bool           // replyTo[slot] is valid (proxy 0 is a legal address)
	replySeq   []uint32
	replySrc   mem.VirtAddr

	// loadHints prepends a 16-byte load sample to every reply (served
	// and rejected alike — a rejection is itself a load signal) for
	// client-side replica routing. Off by default: the wire stays
	// byte-identical to the pre-hint protocol.
	loadHints bool

	Calls   int64 // requests dispatched to a handler
	Shed    int64 // requests rejected by the admission policy
	Expired int64 // requests whose deadline passed before dispatch
}

// NewServer exports the request windows (one slot per prospective client)
// and returns a server ready for Register and Start.
func NewServer(p *sim.Proc, proc *vmmc.Process, slots int) (*Server, error) {
	if slots < 1 {
		return nil, ErrBadSlot
	}
	buf, err := proc.Malloc(slots * SlotBytes)
	if err != nil {
		return nil, err
	}
	src, err := proc.Malloc(SlotBytes)
	if err != nil {
		return nil, err
	}
	s := &Server{
		proc:       proc,
		slots:      slots,
		reqBuf:     buf,
		handlers:   make(map[procKey]Handler),
		expectSeq:  make([]uint32, slots),
		noted:      make([]bool, slots),
		replyTo:    make([]vmmc.ProxyAddr, slots),
		replyReady: make([]bool, slots),
		replySeq:   make([]uint32, slots),
		replySrc:   src,
	}
	for i := range s.expectSeq {
		s.expectSeq[i] = 1
	}
	for i := 0; i < slots; i++ {
		tag := uint32(reqTagBase + i)
		if err := proc.Export(p, tag, buf+mem.VirtAddr(i*SlotBytes), SlotBytes, nil, false); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Register installs the handler for (prog, vers, proc).
func (s *Server) Register(prog, vers, proc uint32, h Handler) {
	s.handlers[procKey{prog, vers, proc}] = h
}

// SetZeroCopy switches the server to the compatibility-free in-place
// receive path. Must match the clients' setting.
func (s *Server) SetZeroCopy(on bool) { s.zeroCopy = on }

// SetAdmission installs the admission policy consulted at request
// arrival and again at dispatch. A nil policy (the default) admits
// everything, which is the legacy behavior.
func (s *Server) SetAdmission(f AdmissionFunc) { s.admit = f }

// SetLoadHints enables the reply load-hint trailer: every reply (and
// rejection) carries the server's queue depth and cumulative shed/served
// counts for client-side load-aware routing. Hint-unaware clients never
// see the trailer only because they never talk to a hint-enabled server
// — the trailer is per-server, not negotiated; disabled (the default)
// the protocol is byte-identical to the pre-hint wire format.
func (s *Server) SetLoadHints(on bool) { s.loadHints = on }

// hintTrailer builds the 16-byte reply load sample. Reading the counters
// costs nothing extra — they are in hand at reply time — so hint-enabled
// replies differ from legacy ones only by the 16 wire bytes.
func (s *Server) hintTrailer() []byte {
	b := make([]byte, hintBytes)
	binary.BigEndian.PutUint32(b[0:], hintFlag|hintVersion)
	binary.BigEndian.PutUint32(b[4:], uint32(len(s.pending)))
	binary.BigEndian.PutUint32(b[8:], uint32(s.Shed))
	binary.BigEndian.PutUint32(b[12:], uint32(s.Calls))
	return b
}

// replyTrailer returns the hint trailer when hints are on, nil otherwise.
func (s *Server) replyTrailer() []byte {
	if !s.loadHints {
		return nil
	}
	return s.hintTrailer()
}

// QueueDepth reports the number of noticed requests awaiting dispatch.
func (s *Server) QueueDepth() int { return len(s.pending) }

// OldestWait reports how long the head-of-queue request has been
// waiting as of now (zero when the queue is empty).
func (s *Server) OldestWait(now sim.Time) sim.Time {
	if len(s.pending) == 0 {
		return 0
	}
	return now - s.pending[0].arrived
}

// Start runs the server loop as a daemon process: scan the slots for
// complete requests, queue them in arrival order, dispatch one at a
// time, reply.
func (s *Server) Start() {
	s.proc.Node.Eng.Go(fmt.Sprintf("vrpc:server:%d", s.proc.Node.ID), func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			s.scan(p)
			if len(s.pending) == 0 {
				// Park until the interface deposits something, then pay
				// the polling-discovery latency. The scan above has no
				// blocking points, so no deposit can slip between it and
				// the wait.
				s.proc.Node.MemActivity.Wait(p)
				p.Sleep(pollInterval)
				continue
			}
			s.serveOne(p)
		}
	})
}

// scan notices newly complete requests into the arrival queue. Noticing
// is free of simulated cost (reading the exported window was always
// part of the poll loop); this is also where deadline-expired and
// over-depth requests are refused before they consume queue residence.
func (s *Server) scan(p *sim.Proc) {
	for slot := 0; slot < s.slots; slot++ {
		if s.noted[slot] {
			continue
		}
		base := s.reqBuf + mem.VirtAddr(slot*SlotBytes)
		raw, ok := slotMessage(s.proc, base, s.expectSeq[slot])
		if !ok {
			continue
		}
		deadline := requestDeadline(raw)
		now := p.Now()
		if deadline != 0 && now >= deadline {
			s.Expired++
			s.reject(p, slot, raw, xdr.AcceptDeadlineExpired)
			continue
		}
		if s.admit != nil && !s.admit(AdmitArrive, len(s.pending)+1, 0, remainingBudget(deadline, now)) {
			s.Shed++
			s.reject(p, slot, raw, xdr.AcceptOverloaded)
			continue
		}
		s.noted[slot] = true
		s.pending = append(s.pending, pendingReq{slot: slot, arrived: now, deadline: deadline})
	}
}

// serveOne dispatches the head of the arrival queue, re-checking the
// deadline and admission policy with the actual queueing delay known.
func (s *Server) serveOne(p *sim.Proc) {
	req := s.pending[0]
	s.pending = s.pending[1:]
	s.noted[req.slot] = false
	base := s.reqBuf + mem.VirtAddr(req.slot*SlotBytes)
	raw, ok := slotMessage(s.proc, base, s.expectSeq[req.slot])
	if !ok {
		return // unreachable: clients never overwrite an unconsumed slot
	}
	now := p.Now()
	if req.deadline != 0 && now >= req.deadline {
		s.Expired++
		s.reject(p, req.slot, raw, xdr.AcceptDeadlineExpired)
		return
	}
	if s.admit != nil && !s.admit(AdmitServe, len(s.pending)+1, now-req.arrived, remainingBudget(req.deadline, now)) {
		s.Shed++
		s.reject(p, req.slot, raw, xdr.AcceptOverloaded)
		return
	}
	s.serve(p, req.slot, raw)
}

// remainingBudget converts an absolute deadline into the budget an
// AdmissionFunc sees.
func remainingBudget(deadline, now sim.Time) sim.Time {
	if deadline == 0 {
		return NoDeadline
	}
	return deadline - now
}

// requestDeadline parses the optional deadline extension out of a raw
// request without charging simulated cost (it reads two words the scan
// already has in hand).
func requestDeadline(raw []byte) sim.Time {
	if len(raw) < 16 {
		return 0
	}
	if binary.BigEndian.Uint32(raw[4:])&deadlineFlag == 0 {
		return 0
	}
	return sim.Time(binary.BigEndian.Uint64(raw[8:]))
}

// reject consumes a request without serving it: a short fixed stub, a
// one-word typed error reply, no handler work. Failing fast is the
// point — the reply must cost far less than the dispatch it replaces.
func (s *Server) reject(p *sim.Proc, slot int, raw []byte, stat uint32) {
	s.expectSeq[slot]++
	p.Sleep(rejectStub)
	hdrOff := 8
	if requestDeadline(raw) != 0 {
		hdrOff = 16
	}
	hdr, _, err := xdr.DecodeCall(raw[hdrOff:])
	if err != nil {
		stat = xdr.AcceptGarbageArgs
	}
	clientNode := int(binary.BigEndian.Uint32(raw[0:]))
	replyTag := binary.BigEndian.Uint32(raw[4:]) &^ deadlineFlag
	if !s.ensureReplyWindow(p, slot, clientNode, replyTag) {
		return
	}
	enc := xdr.EncodeReply(hdr.XID, stat)
	s.sendMessage(p, s.proc, s.replySrc, s.replyTo[slot], enc.Bytes(), &s.replySeq[slot], s.replyTrailer())
}

// ensureReplyWindow imports the client's reply window on first contact.
func (s *Server) ensureReplyWindow(p *sim.Proc, slot int, clientNode int, replyTag uint32) bool {
	if s.replyReady[slot] {
		return true
	}
	dest, _, err := s.proc.Import(p, clientNode, replyTag)
	if err != nil {
		return false // cannot reply; drop, as UDP SunRPC would
	}
	s.replyTo[slot] = dest
	s.replyReady[slot] = true
	s.replySeq[slot] = 1
	return true
}

// slotMessage checks a slot window for a complete message with the
// expected trailing sequence flag and returns its payload. It is the spin
// predicate of every reply and request wait, so the length and sequence
// words are read into a stack buffer: only a complete message allocates.
func slotMessage(proc *vmmc.Process, base mem.VirtAddr, expect uint32) ([]byte, bool) {
	var word [4]byte
	if proc.AS.Read(base, word[:]) != nil {
		return nil, false
	}
	n := int(binary.BigEndian.Uint32(word[:]))
	if n <= 0 || n > slotMax {
		return nil, false
	}
	if proc.AS.Read(base+4+mem.VirtAddr(n), word[:]) != nil {
		return nil, false
	}
	if binary.BigEndian.Uint32(word[:]) != expect {
		return nil, false
	}
	payload, err := proc.Read(base+4, n)
	if err != nil {
		return nil, false
	}
	return payload, true
}

// serve dispatches one admitted request from the slot.
func (s *Server) serve(p *sim.Proc, slot int, raw []byte) {
	s.expectSeq[slot]++
	s.Calls++

	if s.zeroCopy {
		// Compatibility-free path: decode in place in the exported
		// window; no copy, no untuned-port overhead.
		p.Sleep(serverStub)
	} else {
		// The SunRPC-compatible receive path copies the message out of
		// the communication buffer before decoding (§5.4's one copy per
		// receive).
		s.proc.Node.CPU.Bcopy(p, len(raw))
		p.Sleep(serverStub)
		p.Sleep(myrinetPortOverhead)
	}

	// First two words of the trailer the client prepends before the RPC
	// message proper: its node id and reply tag, used to establish the
	// reply window on first contact. A set deadlineFlag bit extends the
	// trailer with the absolute deadline.
	var enc *xdr.Encoder
	clientNode := int(binary.BigEndian.Uint32(raw[0:]))
	replyTag := binary.BigEndian.Uint32(raw[4:]) &^ deadlineFlag
	hdrOff := 8
	if requestDeadline(raw) != 0 {
		hdrOff = 16
	}
	hdr, args, err := xdr.DecodeCall(raw[hdrOff:])
	p.Sleep(xdrCost(len(raw)))

	if !s.ensureReplyWindow(p, slot, clientNode, replyTag) {
		return
	}

	switch {
	case err != nil:
		enc = xdr.EncodeReply(hdr.XID, xdr.AcceptGarbageArgs)
	default:
		h, found := s.handlers[procKey{hdr.Prog, hdr.Vers, hdr.Proc}]
		if !found {
			enc = xdr.EncodeReply(hdr.XID, xdr.AcceptProcUnavail)
		} else {
			enc = xdr.EncodeReply(hdr.XID, xdr.AcceptSuccess)
			if stat := h(p, args, enc); stat != xdr.AcceptSuccess {
				enc = xdr.EncodeReply(hdr.XID, stat)
			}
		}
	}
	p.Sleep(xdrCost(enc.Len()))
	s.sendMessage(p, s.proc, s.replySrc, s.replyTo[slot], enc.Bytes(), &s.replySeq[slot], s.replyTrailer())
}

// sendMessage frames [len][payload(+trailer)][seq] into src memory and
// deliberate-updates it into the destination window as one VMMC send.
func (s *Server) sendMessage(p *sim.Proc, proc *vmmc.Process, src mem.VirtAddr, dest vmmc.ProxyAddr, payload []byte, seq *uint32, trailer []byte) error {
	return sendFramed(p, proc, src, dest, payload, seq, trailer)
}

func sendFramed(p *sim.Proc, proc *vmmc.Process, src mem.VirtAddr, dest vmmc.ProxyAddr, payload []byte, seq *uint32, trailer []byte) error {
	total := len(trailer) + len(payload)
	if total > slotMax {
		return ErrTooBig
	}
	msg := make([]byte, 4+total+4)
	binary.BigEndian.PutUint32(msg[0:], uint32(total))
	copy(msg[4:], trailer)
	copy(msg[4+len(trailer):], payload)
	binary.BigEndian.PutUint32(msg[4+total:], *seq)
	*seq++
	if err := proc.Write(src, msg); err != nil {
		return err
	}
	return proc.SendMsgSync(p, src, dest, len(msg), vmmc.SendOptions{})
}

// ClientConfig carries per-connection client tuning. The zero value
// preserves the historical behavior exactly.
type ClientConfig struct {
	// ReplyGrace overrides the package-level ReplyGrace for this
	// connection: how long past its deadline a CallDeadline call waits
	// for the server's verdict before ErrRPCTimeout. Zero selects the
	// package default (25 µs).
	ReplyGrace sim.Time
}

// Client is a vRPC client bound to one server slot.
type Client struct {
	proc     *vmmc.Process
	slot     int
	dest     vmmc.ProxyAddr // server's request window for this slot
	repBuf   mem.VirtAddr   // local reply window (exported to the server)
	src      mem.VirtAddr
	seq      uint32
	repSeq   uint32
	nextXID  uint32
	zeroCopy bool
	cfg      ClientConfig

	// lastHint is the most recent load-hint trailer stripped from a
	// reply on this connection; hintSeen reports one arrived at all.
	lastHint LoadHint
	hintSeen bool

	// stale counts abandoned calls whose replies have not yet been
	// consumed. After a CallDeadline timeout the connection is dirty:
	// the request slot may still hold an unserved message, so the next
	// call must first drain the late replies (in seq order) before it
	// may overwrite the slot. Overwriting an unconsumed request would
	// desynchronize the per-slot sequence protocol on both ends.
	stale int

	// replyReady is awaitReply's spin predicate, built once per
	// connection so a wait allocates no closure; it parks the message
	// it finds in reply.
	replyReady func() bool
	reply      []byte
}

// Stale reports the number of abandoned calls whose replies the next
// call must drain before sending. Nonzero after a timeout.
func (c *Client) Stale() int { return c.stale }

// SetZeroCopy switches the client to the compatibility-free in-place
// receive path. Must match the server's setting.
func (c *Client) SetZeroCopy(on bool) { c.zeroCopy = on }

// SetConfig installs per-connection tuning; see ClientConfig.
func (c *Client) SetConfig(cfg ClientConfig) { c.cfg = cfg }

// replyGrace resolves the connection's effective reply grace.
func (c *Client) replyGrace() sim.Time {
	if c.cfg.ReplyGrace > 0 {
		return c.cfg.ReplyGrace
	}
	return ReplyGrace
}

// LastHint returns the most recent load hint the server piggybacked on
// a reply over this connection, and whether any hint has arrived. Hints
// are a routing signal, not a synchronized snapshot: the sample is as
// of the server's reply time (LoadHint.At is the client receive time).
func (c *Client) LastHint() (LoadHint, bool) { return c.lastHint, c.hintSeen }

// Dial imports the server's request window for the slot and exports a
// local reply window the server will import on first contact.
func Dial(p *sim.Proc, proc *vmmc.Process, serverNode, slot int) (*Client, error) {
	dest, n, err := proc.Import(p, serverNode, uint32(reqTagBase+slot))
	if err != nil {
		return nil, err
	}
	if n < SlotBytes {
		return nil, fmt.Errorf("rpc: server window only %d bytes", n)
	}
	repBuf, err := proc.Malloc(SlotBytes)
	if err != nil {
		return nil, err
	}
	src, err := proc.Malloc(SlotBytes)
	if err != nil {
		return nil, err
	}
	replyTag := uint32(repTagBase + slot)
	if err := proc.Export(p, replyTag, repBuf, SlotBytes, nil, false); err != nil {
		return nil, err
	}
	c := &Client{
		proc:    proc,
		slot:    slot,
		dest:    dest,
		repBuf:  repBuf,
		src:     src,
		seq:     1,
		repSeq:  1,
		nextXID: 1,
	}
	c.replyReady = func() bool {
		m, ok := slotMessage(c.proc, c.repBuf, c.repSeq)
		if ok {
			c.reply = m
		}
		return ok
	}
	return c, nil
}

// Call performs a synchronous RPC: encode arguments with args, wait for
// the reply, decode results with res. The wait is unbounded; use
// CallDeadline when the server may be slow, overloaded, or dead.
func (c *Client) Call(p *sim.Proc, prog, vers, proc uint32, args func(*xdr.Encoder), res func(*xdr.Decoder) error) error {
	return c.call(p, 0, prog, vers, proc, args, res)
}

// CallDeadline performs a synchronous RPC with an absolute deadline.
// The deadline is marshaled into the request (servers refuse requests
// whose budget ran out instead of doing dead work) and bounds the
// client's reply wait: if it passes with no reply, CallDeadline returns
// ErrRPCTimeout and abandons the call. Typed server rejections surface
// as ErrOverloaded (retriable) and ErrDeadlineExceeded (not).
func (c *Client) CallDeadline(p *sim.Proc, deadline sim.Time, prog, vers, proc uint32, args func(*xdr.Encoder), res func(*xdr.Decoder) error) error {
	if deadline <= 0 {
		return c.call(p, 0, prog, vers, proc, args, res)
	}
	return c.call(p, deadline, prog, vers, proc, args, res)
}

func (c *Client) call(p *sim.Proc, deadline sim.Time, prog, vers, proc uint32, args func(*xdr.Encoder), res func(*xdr.Decoder) error) error {
	node := c.proc.Node
	p.Sleep(clientStub)
	if !c.zeroCopy {
		p.Sleep(myrinetPortOverhead)
	}
	// The reply wait extends the reply grace past the deadline so a
	// prompt typed rejection is heard instead of racing the local
	// timeout; the deadline marshaled to the server stays exact.
	waitUntil := deadline
	if deadline != 0 {
		waitUntil = deadline + c.replyGrace()
	}
	if err := c.drainStale(p, waitUntil); err != nil {
		return err
	}
	xid := c.nextXID
	c.nextXID++
	enc := xdr.EncodeCall(xdr.CallHeader{XID: xid, Prog: prog, Vers: vers, Proc: proc})
	if args != nil {
		args(enc)
	}
	p.Sleep(xdrCost(enc.Len()))

	// Trailer: client node and reply tag for first-contact setup, plus
	// the optional deadline extension (flagged in the reply-tag word).
	var trailer []byte
	if deadline != 0 {
		trailer = make([]byte, 16)
		binary.BigEndian.PutUint32(trailer[0:], uint32(node.ID))
		binary.BigEndian.PutUint32(trailer[4:], uint32(repTagBase+c.slot)|deadlineFlag)
		binary.BigEndian.PutUint64(trailer[8:], uint64(deadline))
	} else {
		trailer = make([]byte, 8)
		binary.BigEndian.PutUint32(trailer[0:], uint32(node.ID))
		binary.BigEndian.PutUint32(trailer[4:], uint32(repTagBase+c.slot))
	}
	if err := sendFramed(p, c.proc, c.src, c.dest, enc.Bytes(), &c.seq, trailer); err != nil {
		return err
	}

	// Await the reply in the exported window, up to deadline + grace.
	raw, ok := c.awaitReply(p, waitUntil)
	if !ok {
		c.stale++
		return ErrRPCTimeout
	}
	c.repSeq++

	if !c.zeroCopy {
		// One copy per receive for SunRPC compatibility (§5.4).
		node.CPU.Bcopy(p, len(raw))
	}
	p.Sleep(xdrCost(len(raw)))
	// Strip the optional load-hint trailer. The flag bit lives where a
	// plain reply carries its XID (always below 2^31), so a flagged
	// first word is unambiguous; decoding the sample reads words the
	// copy above already paid for.
	if len(raw) >= hintBytes && binary.BigEndian.Uint32(raw[0:])&hintFlag != 0 {
		c.lastHint = LoadHint{
			Depth:  int(binary.BigEndian.Uint32(raw[4:])),
			Sheds:  int64(binary.BigEndian.Uint32(raw[8:])),
			Served: int64(binary.BigEndian.Uint32(raw[12:])),
			At:     p.Now(),
		}
		c.hintSeen = true
		raw = raw[hintBytes:]
	}
	gotXID, stat, dec, err := xdr.DecodeReply(raw)
	if err != nil {
		return err
	}
	if gotXID != xid {
		return fmt.Errorf("rpc: reply xid %d, want %d", gotXID, xid)
	}
	switch stat {
	case xdr.AcceptSuccess:
	case xdr.AcceptProcUnavail, xdr.AcceptProgUnavail, xdr.AcceptProgMismatch:
		return ErrProcUnavail
	case xdr.AcceptGarbageArgs:
		return ErrGarbage
	case xdr.AcceptOverloaded:
		return ErrOverloaded
	case xdr.AcceptDeadlineExpired:
		return ErrDeadlineExceeded
	default:
		return ErrSystem
	}
	if res != nil {
		return res(dec)
	}
	return nil
}

// awaitReply waits for the next in-sequence reply. With a deadline the
// spin also gives up at the first sample tick at or after it, so a lost
// notification — dead server, dropped reply, partition — resolves as a
// timeout instead of blocking forever. With deadline 0 the wait is
// unbounded (legacy behavior, byte-identical timing).
func (c *Client) awaitReply(p *sim.Proc, deadline sim.Time) ([]byte, bool) {
	if deadline == 0 {
		deadline = sim.Never
	}
	if !c.proc.Node.CPU.SpinWaitUntil(p, deadline, c.replyReady) {
		return nil, false
	}
	raw := c.reply
	c.reply = nil
	return raw, true
}

// drainStale consumes late replies to previously abandoned calls so the
// request slot is provably free before the next send. Each stale reply
// is discarded without decode cost; the drain itself is bounded by the
// new call's deadline (unbounded if it has none — reuse a timed-out
// connection with deadlines).
func (c *Client) drainStale(p *sim.Proc, deadline sim.Time) error {
	for c.stale > 0 {
		if _, ok := c.awaitReply(p, deadline); !ok {
			return ErrRPCTimeout
		}
		c.repSeq++
		c.stale--
	}
	return nil
}
