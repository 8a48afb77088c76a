// Package wire is the binary protocol of the distributed solve cluster:
// length-prefixed, version-tagged frames mirroring the message model of the
// multicomputer simulator (internal/machine). A frame is
//
//	magic (1 byte, 0xFC) | version (1) | type (1) | payload length (4, LE) | payload
//
// and the payload of each frame type is a fixed field sequence encoded
// little-endian (integers), IEEE-754 bits (floats), or u32-length-prefixed
// UTF-8 (strings). The same three frame families the simulator models cross
// the wire for real:
//
//   - block-column sends (BlockData: one completed block's dense payload,
//     the checkpoint unit of buddy recovery),
//   - BMOD aggregation traffic is implicit — the fan-out method ships
//     completed source blocks and the destination's owner performs the
//     BMODs locally, exactly as in §2.3 — so the aggregate frame is the
//     same BlockData frame addressed to each consumer node,
//   - completion and pivot-error control frames (Done carries either).
//
// Every decoder is total: arbitrary bytes produce an error, never a panic
// or an unbounded allocation (fuzzed in fuzz_test.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Magic is the first byte of every frame.
const Magic byte = 0xFC

// Version is the protocol version this package speaks. Decoding rejects
// frames of any other version, so mixed-version clusters fail loudly at the
// first frame instead of corrupting a factorization. Version 2 added the
// CRC32 trailer on BlockData payloads; version 3 added the tenant label and
// deadline to StartJob (so nodes abort work whose requester already gave
// up) and the deadline-abort counter to NodeStats; version 4 added an
// optional measured-cost block mapping to StartJob; version 5 added the
// failed held-block snapshot write counter to NodeStats; version 6 removed
// version 4's mapping fields (MapPr, MapPc, MapI, MapJ), so every
// participant derives the serving tier's static schedule from the plan
// options and Procs alone.
const Version byte = 6

// MaxPayload bounds a frame's payload; larger announced lengths are
// rejected before allocation. 1 GiB admits the block payloads of
// paper-scale problems with room to spare.
const MaxPayload = 1 << 30

// Type identifies a frame's payload layout.
type Type byte

const (
	// THello is a node's join announcement to the gateway.
	THello Type = iota + 1
	// THeartbeat is the periodic liveness + stats report, node → gateway.
	THeartbeat
	// TStartJob distributes one factorization epoch: matrix, plan options,
	// the proc→node ownership table, the participant directory, and the
	// primary/replica assembly targets. Gateway → every participant.
	TStartJob
	// TAbort cancels a running epoch ahead of a restart or failure.
	TAbort
	// TBlockData carries one completed block's dense column-major payload —
	// the block-column send of the fan-out method, and the checkpoint unit
	// the buddy failover replays from.
	TBlockData
	// TDone reports a node's slice finished (or failed, with structured
	// pivot coordinates), node → gateway.
	TDone
	// TFactorReady reports that an assembly target holds every block of L,
	// node → gateway.
	TFactorReady
	// TSolveReq routes one right-hand side to a node holding the assembled
	// factor, gateway → node.
	TSolveReq
	// TSolveResp answers a TSolveReq, node → gateway.
	TSolveResp
)

var typeNames = map[Type]string{
	THello: "hello", THeartbeat: "heartbeat", TStartJob: "start_job",
	TAbort: "abort", TBlockData: "block_data", TDone: "done",
	TFactorReady: "factor_ready", TSolveReq: "solve_req", TSolveResp: "solve_resp",
}

func (t Type) String() string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("Type(%d)", byte(t))
}

// NodeStats is the per-node counter block carried by heartbeats and Done
// frames; the gateway aggregates it into /metrics.
type NodeStats struct {
	BlocksOwned uint64 // blocks this node executes under the current epoch
	BlocksDone  uint64 // blocks completed (including retained predone ones)
	Flops       uint64 // flops executed by the local engine
	Steals      uint64 // successful work-steals inside the local engine
	BytesSent   uint64 // data-plane bytes shipped to peers
	BytesRecv   uint64 // data-plane bytes received from peers
	Failovers   uint64 // epochs this node restarted due to a peer failure
	// DeadlineAborts counts epochs abandoned because the requester's
	// deadline expired before the work finished (v3).
	DeadlineAborts uint64
	// SnapshotWriteErrors counts held-block checkpoints the node's store
	// failed to write (v5).
	SnapshotWriteErrors uint64
}

// Hello announces a node to the gateway.
type Hello struct {
	ID       string  // node name, unique in the cluster
	DataAddr string  // host:port of the node's data-plane listener
	Speed    float64 // relative flop rate (1 = nominal); feeds the mapping
}

// Heartbeat is the periodic liveness report.
type Heartbeat struct {
	Stats NodeStats
}

// Participant is one row of a job's node directory.
type Participant struct {
	ID       string
	DataAddr string
	Alive    bool
}

// StartJob starts (or, with Epoch > 0, restarts) a distributed
// factorization on one participant.
type StartJob struct {
	JobID string // pattern-hash hex id, same namespace as the serving tier
	RunID uint64 // one client factor request; values are fixed within a run
	Epoch uint32 // failover generation within the run

	// Matrix is the full symmetric-lower CSC input. Values ride along so a
	// refactor request reuses the node's cached plan but reloads numerics.
	N      uint32
	ColPtr []uint32
	RowInd []uint32
	Val    []float64

	// Plan options; every node must derive the identical plan and schedule.
	BlockSize uint32
	Blocking  uint8
	Ordering  uint8
	Exec      uint8
	AmalgThr  float64

	// Procs is the virtual processor count of the block mapping; NodeOf
	// maps each virtual processor to a participant index. Buddy failover
	// rewrites NodeOf and bumps Epoch.
	Procs  uint32
	NodeOf []uint16

	Participants []Participant
	Primary      uint16   // participant index holding the assembled factor
	Replicas     []uint16 // additional assembly targets for failover routing
	Frontier     uint32   // completed-column watermark at the last failover (observability)

	// Admission metadata (v3). Tenant labels the requester for per-tenant
	// accounting on nodes; DeadlineUnixMicro, when nonzero, is the absolute
	// request deadline (µs since the Unix epoch) — a node aborts the epoch
	// rather than burn flops for a requester that already gave up.
	Tenant            string
	DeadlineUnixMicro int64
}

// Abort cancels the named epoch.
type Abort struct {
	JobID  string
	RunID  uint64
	Epoch  uint32
	Reason string
}

// BlockData is one completed block's payload.
type BlockData struct {
	JobID string
	RunID uint64
	Epoch uint32
	Block uint32
	Data  []float64
}

// Done reports one node's slice finished or failed.
type Done struct {
	JobID string
	RunID uint64
	Epoch uint32
	OK    bool
	Err   string
	// Pivot coordinates when the failure is a numeric breakdown.
	HasPivot             bool
	PivotBlock, PivotRow int32
	Pivot                float64
	// Watermark is the node's completed-leading-column count, the
	// supernode frontier the next epoch restarts from.
	Watermark uint32
	Stats     NodeStats
}

// FactorReady reports that the sender holds every block of the factor.
type FactorReady struct {
	JobID string
	RunID uint64
}

// SolveReq routes one right-hand side to an assembly node.
type SolveReq struct {
	Seq   uint64
	JobID string
	B     []float64
}

// SolveResp answers a SolveReq.
type SolveResp struct {
	Seq uint64
	OK  bool
	Err string
	X   []float64
}

// ---- encoding ----

type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) u32s(v []uint32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(x)
	}
}
func (e *enc) u16s(v []uint16) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u16(x)
	}
}
func (e *enc) f64s(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}
func (e *enc) stats(s NodeStats) {
	e.u64(s.BlocksOwned)
	e.u64(s.BlocksDone)
	e.u64(s.Flops)
	e.u64(s.Steals)
	e.u64(s.BytesSent)
	e.u64(s.BytesRecv)
	e.u64(s.Failovers)
	e.u64(s.DeadlineAborts)
	e.u64(s.SnapshotWriteErrors)
}

// ---- decoding ----

var (
	// ErrTruncated reports a payload shorter than its fields claim.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrVersion reports a frame of a different protocol version.
	ErrVersion = errors.New("wire: protocol version mismatch")
	// ErrMagic reports a stream that is not speaking this protocol.
	ErrMagic = errors.New("wire: bad magic byte")
	// ErrChecksum reports a BlockData frame whose payload bytes do not
	// match their CRC32 trailer: the lengths lined up but the numeric
	// content was corrupted in flight.
	ErrChecksum = errors.New("wire: block data checksum mismatch")
)

type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *dec) failWith(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) u8() uint8 {
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u16() uint16 {
	if len(d.b) < 2 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

func (d *dec) u32() uint32 {
	if len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) boolean() bool { return d.u8() != 0 }

// count reads a u32 length prefix and validates it against the bytes that
// remain at elemSize bytes per element, so a hostile length can never force
// an allocation larger than the payload that carries it.
func (d *dec) count(elemSize int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if int64(n)*int64(elemSize) > int64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) u32s() []uint32 {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	v := make([]uint32, n)
	for i := range v {
		v[i] = d.u32()
	}
	return v
}

func (d *dec) u16s() []uint16 {
	n := d.count(2)
	if d.err != nil || n == 0 {
		return nil
	}
	v := make([]uint16, n)
	for i := range v {
		v[i] = d.u16()
	}
	return v
}

func (d *dec) f64s() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

func (d *dec) stats() NodeStats {
	s := NodeStats{
		BlocksOwned: d.u64(),
		BlocksDone:  d.u64(),
		Flops:       d.u64(),
		Steals:      d.u64(),
		BytesSent:   d.u64(),
		BytesRecv:   d.u64(),
		Failovers:   d.u64(),
	}
	s.DeadlineAborts = d.u64()
	s.SnapshotWriteErrors = d.u64()
	return s
}

// done reports a fully-consumed, error-free payload. Trailing bytes are a
// framing bug (or corruption) and are rejected rather than ignored.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after payload", len(d.b))
	}
	return nil
}

// ---- per-type payload codecs ----

func (h *Hello) encode(e *enc) {
	e.str(h.ID)
	e.str(h.DataAddr)
	e.f64(h.Speed)
}

func (h *Hello) decode(d *dec) {
	h.ID = d.str()
	h.DataAddr = d.str()
	h.Speed = d.f64()
}

func (h *Heartbeat) encode(e *enc) { e.stats(h.Stats) }
func (h *Heartbeat) decode(d *dec) { h.Stats = d.stats() }

func (s *StartJob) encode(e *enc) {
	e.str(s.JobID)
	e.u64(s.RunID)
	e.u32(s.Epoch)
	e.u32(s.N)
	e.u32s(s.ColPtr)
	e.u32s(s.RowInd)
	e.f64s(s.Val)
	e.u32(s.BlockSize)
	e.u8(s.Blocking)
	e.u8(s.Ordering)
	e.u8(s.Exec)
	e.f64(s.AmalgThr)
	e.u32(s.Procs)
	e.u16s(s.NodeOf)
	e.u32(uint32(len(s.Participants)))
	for _, p := range s.Participants {
		e.str(p.ID)
		e.str(p.DataAddr)
		e.boolean(p.Alive)
	}
	e.u16(s.Primary)
	e.u16s(s.Replicas)
	e.u32(s.Frontier)
	e.str(s.Tenant)
	e.u64(uint64(s.DeadlineUnixMicro))
}

func (s *StartJob) decode(d *dec) {
	s.JobID = d.str()
	s.RunID = d.u64()
	s.Epoch = d.u32()
	s.N = d.u32()
	s.ColPtr = d.u32s()
	s.RowInd = d.u32s()
	s.Val = d.f64s()
	s.BlockSize = d.u32()
	s.Blocking = d.u8()
	s.Ordering = d.u8()
	s.Exec = d.u8()
	s.AmalgThr = d.f64()
	s.Procs = d.u32()
	s.NodeOf = d.u16s()
	n := d.count(9) // 2 length-prefixed strings + 1 bool ≥ 9 bytes each
	for i := 0; i < n && d.err == nil; i++ {
		s.Participants = append(s.Participants, Participant{
			ID: d.str(), DataAddr: d.str(), Alive: d.boolean(),
		})
	}
	s.Primary = d.u16()
	s.Replicas = d.u16s()
	s.Frontier = d.u32()
	s.Tenant = d.str()
	s.DeadlineUnixMicro = int64(d.u64())
}

func (a *Abort) encode(e *enc) {
	e.str(a.JobID)
	e.u64(a.RunID)
	e.u32(a.Epoch)
	e.str(a.Reason)
}

func (a *Abort) decode(d *dec) {
	a.JobID = d.str()
	a.RunID = d.u64()
	a.Epoch = d.u32()
	a.Reason = d.str()
}

func (b *BlockData) encode(e *enc) {
	e.str(b.JobID)
	e.u64(b.RunID)
	e.u32(b.Epoch)
	e.u32(b.Block)
	start := len(e.b)
	e.f64s(b.Data)
	// CRC32-IEEE over the length-prefixed data bytes just written. Block
	// payloads are the one frame family whose corruption would silently
	// poison a factorization instead of failing a decode, so they alone
	// carry an end-to-end checksum on top of the framing length checks.
	e.u32(crc32.ChecksumIEEE(e.b[start:]))
}

func (b *BlockData) decode(d *dec) {
	b.JobID = d.str()
	b.RunID = d.u64()
	b.Epoch = d.u32()
	b.Block = d.u32()
	raw := d.b
	b.Data = d.f64s()
	if d.err != nil {
		return
	}
	sum := crc32.ChecksumIEEE(raw[:len(raw)-len(d.b)])
	if d.u32() != sum && d.err == nil {
		d.failWith(ErrChecksum)
	}
}

func (dn *Done) encode(e *enc) {
	e.str(dn.JobID)
	e.u64(dn.RunID)
	e.u32(dn.Epoch)
	e.boolean(dn.OK)
	e.str(dn.Err)
	e.boolean(dn.HasPivot)
	e.u32(uint32(dn.PivotBlock))
	e.u32(uint32(dn.PivotRow))
	e.f64(dn.Pivot)
	e.u32(dn.Watermark)
	e.stats(dn.Stats)
}

func (dn *Done) decode(d *dec) {
	dn.JobID = d.str()
	dn.RunID = d.u64()
	dn.Epoch = d.u32()
	dn.OK = d.boolean()
	dn.Err = d.str()
	dn.HasPivot = d.boolean()
	dn.PivotBlock = int32(d.u32())
	dn.PivotRow = int32(d.u32())
	dn.Pivot = d.f64()
	dn.Watermark = d.u32()
	dn.Stats = d.stats()
}

func (f *FactorReady) encode(e *enc) {
	e.str(f.JobID)
	e.u64(f.RunID)
}

func (f *FactorReady) decode(d *dec) {
	f.JobID = d.str()
	f.RunID = d.u64()
}

func (s *SolveReq) encode(e *enc) {
	e.u64(s.Seq)
	e.str(s.JobID)
	e.f64s(s.B)
}

func (s *SolveReq) decode(d *dec) {
	s.Seq = d.u64()
	s.JobID = d.str()
	s.B = d.f64s()
}

func (s *SolveResp) encode(e *enc) {
	e.u64(s.Seq)
	e.boolean(s.OK)
	e.str(s.Err)
	e.f64s(s.X)
}

func (s *SolveResp) decode(d *dec) {
	s.Seq = d.u64()
	s.OK = d.boolean()
	s.Err = d.str()
	s.X = d.f64s()
}

// ---- frame layer ----

// Frame is one decoded frame: exactly one of the payload pointers is
// non-nil, matched by Type.
type Frame struct {
	Type        Type
	Hello       *Hello
	Heartbeat   *Heartbeat
	StartJob    *StartJob
	Abort       *Abort
	BlockData   *BlockData
	Done        *Done
	FactorReady *FactorReady
	SolveReq    *SolveReq
	SolveResp   *SolveResp
}

type payload interface {
	encode(*enc)
	decode(*dec)
}

// payloadOf returns the frame's payload value, or nil for an unknown type
// or an unset payload pointer. Each case guards against a typed-nil
// pointer escaping into the interface.
func (f *Frame) payloadOf() payload {
	switch f.Type {
	case THello:
		if f.Hello != nil {
			return f.Hello
		}
	case THeartbeat:
		if f.Heartbeat != nil {
			return f.Heartbeat
		}
	case TStartJob:
		if f.StartJob != nil {
			return f.StartJob
		}
	case TAbort:
		if f.Abort != nil {
			return f.Abort
		}
	case TBlockData:
		if f.BlockData != nil {
			return f.BlockData
		}
	case TDone:
		if f.Done != nil {
			return f.Done
		}
	case TFactorReady:
		if f.FactorReady != nil {
			return f.FactorReady
		}
	case TSolveReq:
		if f.SolveReq != nil {
			return f.SolveReq
		}
	case TSolveResp:
		if f.SolveResp != nil {
			return f.SolveResp
		}
	}
	return nil
}

// newFrame allocates the payload struct for t; ok is false for unknown
// types.
func newFrame(t Type) (Frame, bool) {
	f := Frame{Type: t}
	switch t {
	case THello:
		f.Hello = &Hello{}
	case THeartbeat:
		f.Heartbeat = &Heartbeat{}
	case TStartJob:
		f.StartJob = &StartJob{}
	case TAbort:
		f.Abort = &Abort{}
	case TBlockData:
		f.BlockData = &BlockData{}
	case TDone:
		f.Done = &Done{}
	case TFactorReady:
		f.FactorReady = &FactorReady{}
	case TSolveReq:
		f.SolveReq = &SolveReq{}
	case TSolveResp:
		f.SolveResp = &SolveResp{}
	default:
		return f, false
	}
	return f, true
}

// Encode serializes one frame.
func Encode(f Frame) ([]byte, error) {
	p := f.payloadOf()
	if p == nil {
		return nil, fmt.Errorf("wire: cannot encode frame type %v (missing or unknown payload)", f.Type)
	}
	e := &enc{b: make([]byte, 7, 64)}
	p.encode(e)
	if len(e.b)-7 > MaxPayload {
		return nil, fmt.Errorf("wire: payload %d bytes exceeds MaxPayload", len(e.b)-7)
	}
	e.b[0] = Magic
	e.b[1] = Version
	e.b[2] = byte(f.Type)
	binary.LittleEndian.PutUint32(e.b[3:7], uint32(len(e.b)-7))
	return e.b, nil
}

// WriteFrame encodes f and writes it to w.
func WriteFrame(w io.Writer, f Frame) error {
	b, err := Encode(f)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadFrame reads and decodes one frame from r. io.EOF at a frame boundary
// is returned verbatim so connection teardown is distinguishable from
// corruption.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [7]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("wire: reading frame header: %w", err)
	}
	if hdr[0] != Magic {
		return Frame{}, ErrMagic
	}
	if hdr[1] != Version {
		return Frame{}, fmt.Errorf("%w: got %d, speak %d", ErrVersion, hdr[1], Version)
	}
	n := binary.LittleEndian.Uint32(hdr[3:7])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("wire: payload length %d exceeds MaxPayload", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, fmt.Errorf("wire: reading %d-byte payload: %w", n, err)
	}
	return Decode(Type(hdr[2]), body)
}

// Decode decodes one payload of the given type.
func Decode(t Type, body []byte) (Frame, error) {
	f, ok := newFrame(t)
	if !ok {
		return Frame{}, fmt.Errorf("wire: unknown frame type %d", byte(t))
	}
	d := &dec{b: body}
	f.payloadOf().decode(d)
	if err := d.done(); err != nil {
		return Frame{}, fmt.Errorf("wire: decoding %v: %w", t, err)
	}
	return f, nil
}
