package cluster

import (
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// FuzzShardRequest pins the shard wire's trust boundary: any bytes a
// coordinator might send either fail to decode, fail Validate, or make
// a request whose chunk range lies inside its own plan and survives a
// re-encode unchanged. Nothing on the path may panic.
func FuzzShardRequest(f *testing.F) {
	f.Add([]byte(`{"kernel":"coop.ber","params":{"mt":2,"mr":2},"seed":1,"trials":6144,"chunk_lo":0,"chunk_hi":3,"chunk_size":2048}`))
	f.Add([]byte(`{"kernel":"coop.ber","seed":-9,"trials":2049,"chunk_lo":1,"chunk_hi":2,"chunk_size":2048}`))
	f.Add([]byte(`{"kernel":"k","trials":9223372036854775807,"chunk_lo":0,"chunk_hi":1,"chunk_size":2048}`))
	f.Add([]byte(`{"kernel":"k","trials":1,"chunk_lo":-1,"chunk_hi":0,"chunk_size":2048}`))
	f.Add([]byte(`{"kernel":"k","trials":1e3,"chunk_hi":1,"chunk_size":2048,"trace":true}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req ShardRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		plan := sim.Plan{Seed: req.Seed, Trials: req.Trials}
		if req.ChunkSize != sim.ChunkSize || req.Trials <= 0 {
			t.Fatalf("accepted %+v: chunk size or trials out of bounds", req)
		}
		if req.ChunkLo < 0 || req.ChunkLo >= req.ChunkHi || req.ChunkHi > plan.Chunks() {
			t.Fatalf("accepted %+v: range outside plan of %d chunks", req, plan.Chunks())
		}
		if n := plan.ChunkTrials(req.ChunkHi - 1); n < 1 || n > sim.ChunkSize {
			t.Fatalf("accepted %+v: last chunk holds %d trials", req, n)
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding accepted %+v: %v", req, err)
		}
		var again ShardRequest
		if err := json.Unmarshal(wire, &again); err != nil {
			t.Fatalf("decoding re-encoded %s: %v", wire, err)
		}
		if again.Kernel != req.Kernel || again.Seed != req.Seed || again.Trials != req.Trials ||
			again.ChunkLo != req.ChunkLo || again.ChunkHi != req.ChunkHi {
			t.Fatalf("round trip changed %+v into %+v", req, again)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("round trip of accepted %+v fails Validate: %v", req, err)
		}
	})
}
