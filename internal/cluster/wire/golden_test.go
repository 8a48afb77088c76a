package wire

import (
	"encoding/hex"
	"math"
	"testing"
)

// TestFrameBytesGolden encodes one fixed value of every frame type and
// compares the whole frame, header included, with committed hex. Field
// order, widths and the version byte are the protocol: a change that
// moves any byte must bump Version and re-record the goldens.
func TestFrameBytesGolden(t *testing.T) {
	stats := NodeStats{
		BlocksOwned: 12, BlocksDone: 11, Flops: 1 << 40, Steals: 7,
		BytesSent: 123456, BytesRecv: 654321, Failovers: 2,
		DeadlineAborts: 3, SnapshotWriteErrors: 5,
	}
	for _, tc := range []struct {
		f    Frame
		want string
	}{
		{Frame{Type: THello, Hello: &Hello{ID: "node-a", DataAddr: "127.0.0.1:9001", Speed: 0.5}},
			"fc080124000000060000006e6f64652d610e0000003132372e302e302e313a39" +
				"303031000000000000e03f"},
		{Frame{Type: THeartbeat, Heartbeat: &Heartbeat{Stats: stats}},
			"fc0802480000000c000000000000000b00000000000000000000000001000007" +
				"0000000000000040e2010000000000f1fb090000000000020000000000000003" +
				"000000000000000500000000000000"},
		{Frame{Type: TStartJob, StartJob: &StartJob{
			JobID: "ab12cd", RunID: 3, Epoch: 1,
			N: 2, ColPtr: []uint32{0, 2, 3}, RowInd: []uint32{0, 1, 1},
			Val:       []float64{4, -1, 3},
			BlockSize: 32, Procs: 4, NodeOf: []uint16{0, 1, 0, 1},
			Participants: []Participant{
				{ID: "a", DataAddr: "h:1", Alive: true},
				{ID: "b", DataAddr: "h:2", Alive: false},
			},
			Primary: 1, Replicas: []uint16{0},
			Tenant: "t", DeadlineUnixMicro: 1_700_000_000_123_456,
		}},
			"fc08039d00000006000000616231326364030000000000000001000000020000" +
				"0003000000000000000200000003000000030000000000000001000000010000" +
				"00030000000000000000001040000000000000f0bf0000000000000840200000" +
				"000400000004000000000001000000010002000000010000006103000000683a" +
				"3101010000006203000000683a32000100010000000000010000007440222018" +
				"240a0600"},
		{Frame{Type: TAbort, Abort: &Abort{JobID: "ab12cd", RunID: 3, Epoch: 1, Reason: "peer died", Drop: true}},
			"fc08042400000006000000616231326364030000000000000001000000090000" +
				"0070656572206469656401"},
		{Frame{Type: TBlockData, BlockData: &BlockData{
			JobID: "ab12cd", RunID: 3, Epoch: 2, Block: 41,
			Data: []float64{1, -2.5, math.Pi, 0, math.Inf(1)},
		}},
			"fc08054a00000006000000616231326364030000000000000002000000290000" +
				"0005000000000000000000f03f00000000000004c0182d4454fb210940000000" +
				"0000000000000000000000f07ff75f8a77"},
		{Frame{Type: TDone, Done: &Done{
			JobID: "ab12cd", RunID: 3, Epoch: 2, OK: false,
			Err: "pivot failure", HasPivot: true, PivotBlock: 9, PivotRow: 4,
			Pivot: -1e-30, Stats: stats,
		}},
			"fc08068100000006000000616231326364030000000000000002000000000d00" +
				"00007069766f74206661696c757265010900000004000000a0c2ebfe4b48b4b9" +
				"0c000000000000000b0000000000000000000000000100000700000000000000" +
				"40e2010000000000f1fb09000000000002000000000000000300000000000000" +
				"0500000000000000"},
		{Frame{Type: TFactorReady, FactorReady: &FactorReady{JobID: "ab12cd", RunID: 3}},
			"fc080712000000060000006162313263640300000000000000"},
		{Frame{Type: TSolveReq, SolveReq: &SolveReq{Seq: 99, JobID: "ab12cd", B: []float64{1, 2}}},
			"fc08082600000063000000000000000600000061623132636402000000000000" +
				"000000f03f0000000000000040"},
		{Frame{Type: TSolveResp, SolveResp: &SolveResp{Seq: 99, OK: true, X: []float64{0.25, 0.5}}},
			"fc0809210000006300000000000000010000000002000000000000000000d03f" +
				"000000000000e03f"},
	} {
		t.Run(tc.f.Type.String(), func(t *testing.T) {
			b, err := Encode(tc.f)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(b); got != tc.want {
				t.Errorf("bytes changed:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
