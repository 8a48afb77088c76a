package critpath_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/core"
	"blockfanout/internal/critpath"
	"blockfanout/internal/gen"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
)

// TestGoldenBits pins Length and ComputeProfile bit for bit on every
// generator under every blocking strategy: the ASAP pass reads the block
// structure's operation tables, and any change in which operations it
// charges, in their flop counts or in their order shows up here.
func TestGoldenBits(t *testing.T) {
	const rate, ovh = 30e6, 1000 / 30e6
	golden := map[string]struct {
		length, avg uint64
		maxWidth    int
		curve       uint64 // FNV-1a of the curve's IEEE-754 bits
	}{
		"cube/uniform":    {0x3f600d16f8227458, 0x40351974b23ae85d, 114, 0x85ac527d92a99ec},
		"cube/staged":     {0x3f62bd186b7865b4, 0x403f42e64914bed9, 217, 0xfe001ee2321339f9},
		"cube/cycled":     {0x3f6232d2bb23571d, 0x403a208ef4b5e7f8, 132, 0xe06e8094477e72f},
		"cube/irregular":  {0x3f605322752e38b1, 0x40335fc9997a074f, 108, 0x2ba10f06eb2fc4bf},
		"grid/uniform":    {0x3f4e7eff72cab124, 0x4033828c8b138302, 112, 0x5306d750fd0e0f88},
		"grid/staged":     {0x3f519be5ebc958ed, 0x40383e9ccf29b0fd, 131, 0x2fbd9b6b4f02361f},
		"grid/cycled":     {0x3f51f4d13f69e9ef, 0x4036f4541f0d12ab, 135, 0xf9045b89cf1d3e1a},
		"grid/irregular":  {0x3f4eb5cdacc69d09, 0x40341ef072cc2c6e, 109, 0x74e28c992a83fc24},
		"mesh/uniform":    {0x3f5436eea99666e0, 0x403d3143cb28d1e5, 328, 0x618f9d630ed1599e},
		"mesh/staged":     {0x3f60611d98ded04a, 0x403e08b3c34f90e1, 406, 0x601bf761fee2d1ab},
		"mesh/cycled":     {0x3f5c7d321330ed97, 0x403d39a23cb9b837, 384, 0x6ae9b6f652a2505f},
		"mesh/irregular":  {0x3f5470ac821b3f68, 0x403d37b7ef1770cb, 328, 0x7e9631fb131254ca},
		"dense/uniform":   {0x3f3561d8a9c176a0, 0x3ff85b3a101c74c1, 3, 0x74cb762d70c8c267},
		"dense/staged":    {0x3f3a77c2201235d3, 0x400070e9f0f4c264, 6, 0xe7a6220c60d81226},
		"dense/cycled":    {0x3f39980fe508bc20, 0x4001009c9fc54416, 6, 0x96b539802c703609},
		"dense/irregular": {0x3f3561d8a9c176a0, 0x3ff85b3a101c74c1, 3, 0x74cb762d70c8c267},
	}
	for _, in := range []struct {
		name   string
		m      *sparse.Matrix
		method order.Method
		grid   int
	}{
		{"cube", gen.Cube3D(6), order.NDCube3D, 6},
		{"grid", gen.Grid2D(14), order.NDGrid2D, 14},
		{"mesh", gen.IrregularMesh(300, 5, 3, 41), order.MinDegree, 0},
		{"dense", gen.Dense(24), order.Natural, 0},
	} {
		for _, s := range []blocks.Strategy{blocks.StrategyUniform, blocks.StrategyStaged, blocks.StrategyCycled, blocks.StrategyIrregular} {
			name := in.name + "/" + s.String()
			plan, err := core.NewPlan(in.m, core.Options{Ordering: in.method, GridDim: in.grid, BlockSize: 8, Blocking: s})
			if err != nil {
				t.Fatal(err)
			}
			length := critpath.Length(plan.BS, rate, ovh)
			prof := critpath.ComputeProfile(plan.BS, rate, ovh, 16)
			h := fnv.New64a()
			for _, v := range prof.Curve {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
			want := golden[name]
			if math.Float64bits(length) != want.length || math.Float64bits(prof.CriticalPath) != want.length ||
				math.Float64bits(prof.AvgWidth) != want.avg || prof.MaxWidth != want.maxWidth || h.Sum64() != want.curve {
				t.Errorf("%s: length %#x, profile %#x avg %#x max %d curve %#x; want %#x, avg %#x max %d curve %#x",
					name, math.Float64bits(length), math.Float64bits(prof.CriticalPath), math.Float64bits(prof.AvgWidth), prof.MaxWidth, h.Sum64(),
					want.length, want.avg, want.maxWidth, want.curve)
			}
		}
	}
}
