package server

import (
	"bytes"
	"testing"
)

// jsonMatrixSeeds are JSON-CSC bodies at the edges of the decoder: valid
// matrices, every shape check, and bodies that probe the JSON grammar.
var jsonMatrixSeeds = []string{
	`{"n":2,"colptr":[0,2,3],"rowind":[0,1,1],"val":[4,1,4]}`,
	`{"n":1,"colptr":[0,1],"rowind":[0],"val":[2]}`,
	`{}`,
	`{"n":-1,"colptr":[0],"rowind":[],"val":[]}`,
	`{"n":1000000000,"colptr":[0,1],"rowind":[0],"val":[1]}`,
	`{"n":2,"colptr":[0,5,3],"rowind":[0,1,1],"val":[4,1,4]}`,
	`{"n":2,"colptr":[0,-2,3],"rowind":[0,1,1],"val":[4,1,4]}`,
	`{"n":2,"colptr":[0,2,3],"rowind":[0,1],"val":[4,1,4]}`,
	`{"n":2,"colptr":[0,2,3],"rowind":[0,1,1],"val":[4,1,1e999]}`,
	`{"n":2,"colptr":[0,2,3],"rowind":[0,9,1],"val":[4,1,4]}`,
	`[1,2,3]`,
	`{"n":2,"unknown":true}`,
	`{"n":2,"colptr":`,
	`{"n":1,"colptr":[0,1],"rowind":[0],"val":[+1]}`,
	`{"n":1,"colptr":[0,1],"rowind":[0],"val":[.5]}`,
	`{"n":1,"colptr":[0,1],"rowind":[0],"val":[01]}`,
	`{"n":1,"colptr":[0,1],"rowind":[0],"val":[NaN]}`,
	`{"n":1,"colptr":[0,1],"rowind":[0],"val":[-0]}`,
	`{"n":1,"colptr":[0,1],"rowind":[0],"val":[0x1p-2]}`,
	`{"n":1,"colptr":[0,1],"rowind":[-0],"val":[1E+0]}`,
	`{"\u006e":1,"colptr":[0,1],"rowind":[0],"val":[2]}`,
	`{"N":1,"colptr":[0,1],"rowind":[0],"val":[2]}`,
	`{"n":1,"n":1,"colptr":[0,1],"rowind":[0],"val":[2]}`,
	`{"n":1,"colptr":[0,1],"rowind":[0],"val":[2]} trailing`,
	` { "val" : [ 2 ] ,"rowind":[0],"colptr" :[0,1],"n":1}` + "\n\t",
	`{"n":0,"colptr":[0],"rowind":null,"val":null}`,
	`{"n":null,"colptr":[0],"rowind":[],"val":[]}`,
	`{"n":1,"colptr":[0,1],"rowind":[0],"val":[null]}`,
}

// FuzzReadMatrix hammers the request-body parser through both codecs.
// Whatever a client posts, readMatrix must return a fully validated matrix
// or an error — no panics, no NaN/Inf values admitted, no allocation sized
// from an unchecked header field.
func FuzzReadMatrix(f *testing.F) {
	mmSeeds := []string{
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 4.0\n2 1 1.0\n2 2 4.0\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 inf\n",
		"garbage",
	}
	for _, s := range jsonMatrixSeeds {
		f.Add([]byte(s), true)
	}
	for _, s := range mmSeeds {
		f.Add([]byte(s), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, asJSON bool) {
		if len(data) > 1<<20 {
			return
		}
		ct := "text/plain"
		if asJSON {
			ct = "application/json"
		}
		m, err := ReadMatrix(bytes.NewReader(data), ct)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("readMatrix accepted a matrix that fails Validate: %v", err)
		}
	})
}

// FuzzReadMatrixJSONDiff checks the JSON-CSC decoder against the
// encoding/json path it replaced: anything it accepts, the reference
// accepts as the bit-identical matrix; anything the reference accepts
// within plainBody's subset, it accepts too.
func FuzzReadMatrixJSONDiff(f *testing.F) {
	for _, s := range jsonMatrixSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		got, err := ReadMatrix(bytes.NewReader(data), "application/json")
		want, refErr := referenceReadMatrix(data)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("accepted a body encoding/json rejects (%v): %q", refErr, data)
		case err == nil:
			if got.N != want.N || !sameInts(got.ColPtr, want.ColPtr) || !sameInts(got.RowInd, want.RowInd) || !sameFloats(got.Val, want.Val) {
				t.Fatalf("decoded %+v, encoding/json %+v: %q", got, want, data)
			}
		case refErr == nil && plainBody(data, cscKinds, false):
			t.Fatalf("rejected a plain body encoding/json accepts: %v: %q", err, data)
		}
	})
}

// FuzzReadSolveDiff is FuzzReadMatrixJSONDiff for solve bodies, whose
// unknown keys are skipped rather than rejected.
func FuzzReadSolveDiff(f *testing.F) {
	for _, s := range jsonMatrixSeeds {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		`{"id":"0123abcd","b":[1,-2.5,3e-3]}`,
		`{"id":"x","bs":[[1,2],[3,4],null]}`,
		`{"id":"x","b":[+1]}`,
		`{"id":"x","b":[.5]}`,
		`{"id":"x","b":[01]}`,
		`{"id":"x","b":[1e999]}`,
		`{"id":"x","b":[NaN]}`,
		`{"id":"x","b":[-0]}`,
		`{"id":"x","b":[]}`,
		`{"id":"x","b":null,"bs":[[1]]}`,
		`{"id":"a\u00e9\ud83d\ude00\ud800x\"\/","b":[1]}`,
		"{\"id\":\"\xff\xfe\",\"b\":[1]}",
		`{"\u0069d":"x","b":[1]}`,
		`{"ID":"x","b":[1]}`,
		`{"id":"x","b":[1],"b":[2]}`,
		`{"id":"x","b":[1]}{}`,
		`{"id":"x","b":[1],"extra":{"k":[true,false,null,"s",{"z":-1.5e2}]}}`,
		`{"id":"x","b":[1],"extra":[1,]}`,
		`{"id":"x","b":[1],"extra":"\q"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		got, err := ReadSolve(bytes.NewReader(data))
		want, refErr := referenceReadSolve(data)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("accepted a body encoding/json rejects (%v): %q", refErr, data)
		case err == nil:
			same := got.ID == want.ID && sameFloats(got.B, want.B) && (got.BS == nil) == (want.BS == nil) && len(got.BS) == len(want.BS)
			for i := 0; same && i < len(got.BS); i++ {
				same = sameFloats(got.BS[i], want.BS[i])
			}
			if !same {
				t.Fatalf("decoded %+v, encoding/json %+v: %q", got, want, data)
			}
		case refErr == nil && plainBody(data, solveKinds, true):
			t.Fatalf("rejected a plain body encoding/json accepts: %v: %q", err, data)
		}
	})
}
