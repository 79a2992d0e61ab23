package graph_test

import (
	"bytes"
	"testing"

	"mbsp/internal/graph"
	"mbsp/internal/workloads"
)

// FuzzGraphRead fuzzes the DAG text format, which the scheduling server
// accepts as the request body. Two properties must hold on any bytes:
//
//  1. graph.Read never panics (malformed input is an error);
//  2. a DAG that Read accepts survives Write→Read with the same
//     ExactDigest, the identity the schedule cache keys on.
//
// The seed corpus is graph.Write of every registry DAG. `go test` runs
// the seeds; `go test -fuzz FuzzGraphRead ./internal/graph` explores
// further.
func FuzzGraphRead(f *testing.F) {
	for _, insts := range [][]workloads.Instance{
		workloads.Tiny(), workloads.Small(), workloads.PaperTiny(), workloads.PaperSmall(),
	} {
		for _, inst := range insts {
			var buf bytes.Buffer
			if err := graph.Write(&buf, inst.DAG); err != nil {
				f.Fatalf("%s: Write: %v", inst.Name, err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := graph.Write(&buf, g); err != nil {
			t.Fatalf("Write of an accepted DAG: %v", err)
		}
		h, err := graph.Read(&buf)
		if err != nil {
			t.Fatalf("Read(Write(g)) rejected an accepted DAG: %v\n%s", err, buf.Bytes())
		}
		if got, want := h.ExactDigest(), g.ExactDigest(); got != want {
			t.Fatalf("round trip changed the exact digest: %x != %x", got, want)
		}
	})
}
