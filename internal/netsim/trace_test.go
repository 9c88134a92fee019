package netsim

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"testing"

	"buanalysis/internal/obs"
	"buanalysis/internal/protocol"
)

func traceNodes() []*Node {
	return []*Node{
		{Name: "big", Power: 0.5, MG: 2_000_000,
			Rules: protocol.BU{EB: 8_000_000, AD: 4}},
		{Name: "small", Power: 0.5, MG: 500_000,
			Rules: protocol.BU{EB: 1_000_000, AD: 4}},
	}
}

// TestTracingIsPassive runs the same seeded simulation with and without
// a tracer and requires identical outcomes: the tracer observes the
// run, it never steers it.
func TestTracingIsPassive(t *testing.T) {
	run := func(tr obs.Tracer) *Network {
		net, err := New(Config{Seed: 7, Tracer: tr}, traceNodes())
		if err != nil {
			t.Fatal(err)
		}
		net.Run(400)
		return net
	}

	plain := run(nil)
	sink := obs.NewRingSink(1 << 16)
	traced := run(sink)

	if plain.BlocksMined != traced.BlocksMined {
		t.Errorf("BlocksMined differs with tracing: %d vs %d", plain.BlocksMined, traced.BlocksMined)
	}
	if a, b := plain.ConsensusTip(), traced.ConsensusTip(); a.Height != b.Height || a.ID() != b.ID() {
		t.Errorf("consensus tip differs with tracing: %v vs %v", a, b)
	}
	for i, n := range plain.Nodes() {
		if got := traced.Nodes()[i].Rejections(); got != n.Rejections() {
			t.Errorf("node %s rejections differ with tracing: %d vs %d", n.Name, n.Rejections(), got)
		}
	}

	events := sink.Events()
	if int64(len(events)) != sink.Total() {
		t.Fatalf("ring overflowed: enlarge it for this test")
	}
	counts := map[string]int{}
	lastT := 0.0
	for _, e := range events {
		counts[e.Kind]++
		if e.T < lastT {
			t.Fatalf("event %q out of time order: %v after %v", e.Kind, e.T, lastT)
		}
		lastT = e.T
	}
	if counts["sim.block"] != plain.BlocksMined {
		t.Errorf("sim.block events = %d, want %d", counts["sim.block"], plain.BlocksMined)
	}
	// Every block is relayed to the one other node.
	if counts["sim.relay"] != plain.BlocksMined {
		t.Errorf("sim.relay events = %d, want %d", counts["sim.relay"], plain.BlocksMined)
	}
	// The small node's 1 MB EB rejects the big node's 2 MB blocks until
	// its AD gate trips, so rejection events must appear and agree with
	// the nodes' own counters.
	rejected := 0
	for _, n := range traced.Nodes() {
		rejected += n.Rejections()
	}
	if rejected == 0 {
		t.Fatal("scenario produced no rejections; trace test is vacuous")
	}
	if counts["sim.reject"] != rejected {
		t.Errorf("sim.reject events = %d, want %d (sum of node rejections)", counts["sim.reject"], rejected)
	}
	if counts["sim.accept"] == 0 {
		t.Error("no sim.accept events")
	}
}

// raceTrace runs traceNodes with a propagation delay of 0.3 block
// intervals, so blocks race: the run forks, reorganizes and rejects. It
// returns the run's JSONL trace.
func raceTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	delay := func(_, _ *Node) float64 { return 0.3 }
	net, err := New(Config{Seed: 13, Delay: delay, Tracer: sink}, traceNodes())
	if err != nil {
		t.Fatal(err)
	}
	net.Run(1500)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterministicAcrossGOMAXPROCS pins byte-identical traces
// under different parallelism settings (and under -race in CI). Over
// that trace it checks causal delivery (a node accepts or rejects only
// a block it mined or was relayed earlier) and that each node's
// accepted height strictly rises.
func TestTraceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	ref := raceTrace(t)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, prev} {
		runtime.GOMAXPROCS(procs)
		if got := raceTrace(t); !bytes.Equal(got, ref) {
			t.Errorf("GOMAXPROCS=%d changed the trace (%d vs %d bytes)", procs, len(got), len(ref))
		}
	}

	counts := map[string]int{}
	seen := map[string]map[string]bool{} // node -> blocks it mined or was relayed
	mark := func(node, block string) {
		if seen[node] == nil {
			seen[node] = map[string]bool{}
		}
		seen[node][block] = true
	}
	accepted := map[string]int{} // node -> last accepted height
	dec := json.NewDecoder(bytes.NewReader(ref))
	for i := 0; ; i++ {
		var e obs.Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		counts[e.Kind]++
		switch e.Kind {
		case "sim.block":
			mark(e.Miner, e.Block)
		case "sim.relay":
			mark(e.Node, e.Block)
		case "sim.accept", "sim.reject":
			if !seen[e.Node][e.Block] {
				t.Errorf("event %d: %s of block %s by node %s before it was mined or relayed there", i, e.Kind, e.Block, e.Node)
			}
			if e.Kind == "sim.accept" {
				if e.Height <= accepted[e.Node] {
					t.Errorf("event %d: node %s accepted height %d after height %d", i, e.Node, e.Height, accepted[e.Node])
				}
				accepted[e.Node] = e.Height
			}
		}
	}
	for _, kind := range []string{"sim.fork", "sim.reorg", "sim.reject"} {
		if counts[kind] == 0 {
			t.Errorf("trace has no %s event; blocks did not race", kind)
		}
	}
}
