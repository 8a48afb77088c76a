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
// The field encoding is internal/codec's, shared with the snapshot store;
// this package owns the frame header and the payload layouts. Every
// decoder is total: arbitrary bytes produce an error, never a panic or an
// unbounded allocation (fuzzed in fuzz_test.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"blockfanout/internal/codec"
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
// options and Procs alone; version 7 removed the StartJob and Done fields
// no node read (Blocking, Ordering, Exec, AmalgThr, Frontier, Watermark),
// so a StartJob carries exactly what a node plans from: BlockSize and
// Procs; version 8 added Abort's Drop flag, with which the gateway tells a
// node to forget a job it evicted.
const Version byte = 8

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
	// TAbort cancels a running epoch ahead of a restart or failure, or,
	// with Drop set, makes the node forget the job. Gateway → node.
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

	// BlockSize is the plan's only setting off its default; every node
	// must derive the identical plan and schedule.
	BlockSize uint32

	// Procs is the virtual processor count of the block mapping; NodeOf
	// maps each virtual processor to a participant index. Buddy failover
	// rewrites NodeOf and bumps Epoch.
	Procs  uint32
	NodeOf []uint16

	Participants []Participant
	Primary      uint16   // participant index holding the assembled factor
	Replicas     []uint16 // additional assembly targets for failover routing

	// Admission metadata (v3). Tenant labels the requester for per-tenant
	// accounting on nodes; DeadlineUnixMicro, when nonzero, is the absolute
	// request deadline (µs since the Unix epoch) — a node aborts the epoch
	// rather than burn flops for a requester that already gave up.
	Tenant            string
	DeadlineUnixMicro int64
}

// Abort cancels the named epoch. With Drop set (v8) it names no epoch: the
// gateway evicted the job, and the node cancels any epoch it runs and
// deletes the job, unless it already started a run newer than RunID.
type Abort struct {
	JobID  string
	RunID  uint64
	Epoch  uint32
	Reason string
	Drop   bool
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
	Stats                NodeStats
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

var (
	// ErrTruncated reports a payload shorter than its fields claim.
	ErrTruncated = codec.ErrTruncated
	// ErrVersion reports a frame of a different protocol version.
	ErrVersion = errors.New("wire: protocol version mismatch")
	// ErrMagic reports a stream that is not speaking this protocol.
	ErrMagic = errors.New("wire: bad magic byte")
	// ErrChecksum reports a BlockData frame whose payload bytes do not
	// match their CRC32 trailer: the lengths lined up but the numeric
	// content was corrupted in flight.
	ErrChecksum = errors.New("wire: block data checksum mismatch")
)

// ---- per-type payload codecs ----

func putStats(e *codec.Enc, s NodeStats) {
	for _, v := range [...]uint64{s.BlocksOwned, s.BlocksDone, s.Flops, s.Steals,
		s.BytesSent, s.BytesRecv, s.Failovers, s.DeadlineAborts, s.SnapshotWriteErrors} {
		e.U64(v)
	}
}

func getStats(d *codec.Dec) NodeStats {
	return NodeStats{
		BlocksOwned: d.U64(), BlocksDone: d.U64(), Flops: d.U64(), Steals: d.U64(),
		BytesSent: d.U64(), BytesRecv: d.U64(), Failovers: d.U64(),
		DeadlineAborts: d.U64(), SnapshotWriteErrors: d.U64(),
	}
}

func (h *Hello) encode(e *codec.Enc) {
	e.Str(h.ID)
	e.Str(h.DataAddr)
	e.F64(h.Speed)
}

func (h *Hello) decode(d *codec.Dec) {
	h.ID = d.Str()
	h.DataAddr = d.Str()
	h.Speed = d.F64()
}

func (h *Heartbeat) encode(e *codec.Enc) { putStats(e, h.Stats) }
func (h *Heartbeat) decode(d *codec.Dec) { h.Stats = getStats(d) }

func (s *StartJob) encode(e *codec.Enc) {
	e.Str(s.JobID)
	e.U64(s.RunID)
	e.U32(s.Epoch)
	e.U32(s.N)
	e.U32s(s.ColPtr)
	e.U32s(s.RowInd)
	e.F64s(s.Val)
	e.U32(s.BlockSize)
	e.U32(s.Procs)
	e.U16s(s.NodeOf)
	e.U32(uint32(len(s.Participants)))
	for _, p := range s.Participants {
		e.Str(p.ID)
		e.Str(p.DataAddr)
		e.Bool(p.Alive)
	}
	e.U16(s.Primary)
	e.U16s(s.Replicas)
	e.Str(s.Tenant)
	e.U64(uint64(s.DeadlineUnixMicro))
}

func (s *StartJob) decode(d *codec.Dec) {
	s.JobID = d.Str()
	s.RunID = d.U64()
	s.Epoch = d.U32()
	s.N = d.U32()
	s.ColPtr = d.U32s()
	s.RowInd = d.U32s()
	s.Val = d.F64s()
	s.BlockSize = d.U32()
	s.Procs = d.U32()
	s.NodeOf = d.U16s()
	n := d.Count(9) // 2 length-prefixed strings + 1 bool ≥ 9 bytes each
	for i := 0; i < n && d.Err() == nil; i++ {
		s.Participants = append(s.Participants, Participant{
			ID: d.Str(), DataAddr: d.Str(), Alive: d.Bool(),
		})
	}
	s.Primary = d.U16()
	s.Replicas = d.U16s()
	s.Tenant = d.Str()
	s.DeadlineUnixMicro = int64(d.U64())
}

func (a *Abort) encode(e *codec.Enc) {
	e.Str(a.JobID)
	e.U64(a.RunID)
	e.U32(a.Epoch)
	e.Str(a.Reason)
	e.Bool(a.Drop)
}

func (a *Abort) decode(d *codec.Dec) {
	a.JobID = d.Str()
	a.RunID = d.U64()
	a.Epoch = d.U32()
	a.Reason = d.Str()
	a.Drop = d.Bool()
}

func (b *BlockData) encode(e *codec.Enc) {
	e.Str(b.JobID)
	e.U64(b.RunID)
	e.U32(b.Epoch)
	e.U32(b.Block)
	start := len(e.B)
	e.F64s(b.Data)
	// CRC32-IEEE over the length-prefixed data bytes just written. Block
	// payloads are the one frame family whose corruption would silently
	// poison a factorization instead of failing a decode, so they alone
	// carry an end-to-end checksum on top of the framing length checks.
	e.U32(crc32.ChecksumIEEE(e.B[start:]))
}

func (b *BlockData) decode(d *codec.Dec) {
	b.JobID = d.Str()
	b.RunID = d.U64()
	b.Epoch = d.U32()
	b.Block = d.U32()
	raw := d.B
	b.Data = d.F64s()
	if d.Err() != nil {
		return
	}
	sum := crc32.ChecksumIEEE(raw[:len(raw)-len(d.B)])
	if d.U32() != sum && d.Err() == nil {
		d.Fail(ErrChecksum)
	}
}

func (dn *Done) encode(e *codec.Enc) {
	e.Str(dn.JobID)
	e.U64(dn.RunID)
	e.U32(dn.Epoch)
	e.Bool(dn.OK)
	e.Str(dn.Err)
	e.Bool(dn.HasPivot)
	e.U32(uint32(dn.PivotBlock))
	e.U32(uint32(dn.PivotRow))
	e.F64(dn.Pivot)
	putStats(e, dn.Stats)
}

func (dn *Done) decode(d *codec.Dec) {
	dn.JobID = d.Str()
	dn.RunID = d.U64()
	dn.Epoch = d.U32()
	dn.OK = d.Bool()
	dn.Err = d.Str()
	dn.HasPivot = d.Bool()
	dn.PivotBlock = int32(d.U32())
	dn.PivotRow = int32(d.U32())
	dn.Pivot = d.F64()
	dn.Stats = getStats(d)
}

func (f *FactorReady) encode(e *codec.Enc) {
	e.Str(f.JobID)
	e.U64(f.RunID)
}

func (f *FactorReady) decode(d *codec.Dec) {
	f.JobID = d.Str()
	f.RunID = d.U64()
}

func (s *SolveReq) encode(e *codec.Enc) {
	e.U64(s.Seq)
	e.Str(s.JobID)
	e.F64s(s.B)
}

func (s *SolveReq) decode(d *codec.Dec) {
	s.Seq = d.U64()
	s.JobID = d.Str()
	s.B = d.F64s()
}

func (s *SolveResp) encode(e *codec.Enc) {
	e.U64(s.Seq)
	e.Bool(s.OK)
	e.Str(s.Err)
	e.F64s(s.X)
}

func (s *SolveResp) decode(d *codec.Dec) {
	s.Seq = d.U64()
	s.OK = d.Bool()
	s.Err = d.Str()
	s.X = d.F64s()
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
	encode(*codec.Enc)
	decode(*codec.Dec)
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
	e := &codec.Enc{B: make([]byte, 7, 64)}
	p.encode(e)
	if len(e.B)-7 > MaxPayload {
		return nil, fmt.Errorf("wire: payload %d bytes exceeds MaxPayload", len(e.B)-7)
	}
	e.B[0] = Magic
	e.B[1] = Version
	e.B[2] = byte(f.Type)
	binary.LittleEndian.PutUint32(e.B[3:7], uint32(len(e.B)-7))
	return e.B, nil
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
	body, err := readPayload(r, int(n))
	if err != nil {
		return Frame{}, fmt.Errorf("wire: reading %d-byte payload: %w", n, err)
	}
	return Decode(Type(hdr[2]), body)
}

// readAhead bounds how far a payload buffer is allocated ahead of the
// bytes that have arrived.
const readAhead = 1 << 20

// readPayload reads an n-byte payload. Up to readAhead bytes it allocates
// once; beyond that the buffer at most doubles per step as bytes arrive,
// so a header that announces MaxPayload and then stops costs a megabyte,
// not a gigabyte.
func readPayload(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, 0, min(n, readAhead))
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), len(body)))
		}
		k, err := io.ReadFull(r, body[len(body):min(n, cap(body))])
		body = body[:len(body)+k]
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}

// Decode decodes one payload of the given type.
func Decode(t Type, body []byte) (Frame, error) {
	f, ok := newFrame(t)
	if !ok {
		return Frame{}, fmt.Errorf("wire: unknown frame type %d", byte(t))
	}
	d := &codec.Dec{B: body}
	f.payloadOf().decode(d)
	if err := d.Done(); err != nil {
		return Frame{}, fmt.Errorf("wire: decoding %v: %w", t, err)
	}
	return f, nil
}
