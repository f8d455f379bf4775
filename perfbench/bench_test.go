package main

import (
	"encoding/json"
	"os"
	"testing"

	"corep/internal/obs"
)

// countRun sets up sp once, starts part*sp.partOps ops into the seed's
// sequence as measuring process number part does, warms it up and runs
// its fixed-length count prefix, with span timing on every second op
// when traced.
func countRun(t *testing.T, sp spec, seed int64, part int, traced bool) (warm, p phase) {
	t.Helper()
	tg, _, err := sp.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	tg.skip(part * sp.partOps)
	warm = runPhase(tg, 0, sp.warmup, sp.warmup, nil)
	var clock *spanClock
	if traced {
		clock = newSpanClock()
	}
	p = runPhase(tg, 0, sp.countOps, sp.countOps, clock)
	for _, ph := range []phase{warm, p} {
		if ph.failed != 0 {
			t.Fatalf("%s seed %d: %d ops failed, first: %v", sp.name, seed, ph.failed, ph.firstErr)
		}
	}
	return warm, p
}

// TestExactCounts is the benchmark's self-check: under one seed the
// layer counts and a digest of every result repeat bit for bit, span
// timing leaves them alone, and another seed or another measuring
// process draws other ops.
func TestExactCounts(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			w1, a := countRun(t, sp, 1, 0, false)
			w2, b := countRun(t, sp, 1, 0, false)
			_, traced := countRun(t, sp, 1, 0, true)
			_, other := countRun(t, sp, 2, 0, false)
			_, part := countRun(t, sp, 1, 1, false)
			if w1.digest != w2.digest || w1.prefix != w2.prefix {
				t.Errorf("warm-up differs between runs of one seed")
			}
			for name, p := range map[string]phase{"second run": b, "traced run": traced} {
				if p.prefix != a.prefix {
					t.Errorf("%s: counts %+v, first run %+v", name, p.prefix, a.prefix)
				}
				if p.digest != a.digest || p.opDigest != a.opDigest {
					t.Errorf("%s: result or op digest differs from the first run", name)
				}
			}
			m1, m2 := map[string]float64{}, map[string]float64{}
			countMetrics(m1, a)
			countMetrics(m2, b)
			for k, v := range m1 {
				if m2[k] != v {
					t.Errorf("%s = %v, then %v", k, v, m2[k])
				}
			}
			if other.opDigest == a.opDigest {
				t.Errorf("seeds 1 and 2 drew the same op sequence")
			}
			if part.opDigest == a.opDigest {
				t.Errorf("measuring processes 0 and 1 drew the same op sequence")
			}
			if a.prefix.diskReads+a.prefix.pins == 0 {
				t.Errorf("no layer activity counted: %+v", a.prefix)
			}
		})
	}
}

// TestSpanClockSelfTime checks span timing on a nested trace: every
// stamp is matched, and the parent's self time excludes its child's.
func TestSpanClockSelfTime(t *testing.T) {
	c := newSpanClock()
	c.io = func() obs.IO { return obs.IO{} }
	tr := c.tracer()
	outer := tr.Start("outer")
	inner := tr.Start("inner")
	spin(4e6)
	inner.End()
	spin(1e6)
	outer.End()
	if len(c.stamp) != 0 || len(c.child) != 0 {
		t.Fatalf("unmatched stamps %v or open children %v", c.stamp, c.child)
	}
	in, out := c.self["inner"], c.self["outer"]
	if out <= 0 || out >= in {
		t.Fatalf("self times inner=%d outer=%d, want 0 < outer < inner", in, out)
	}
	if got := c.selfUs(func(string) bool { return true }); got != float64(in+out)/1e3 {
		t.Fatalf("selfUs = %v, want %v", got, float64(in+out)/1e3)
	}
}

// spin burns roughly n ns of CPU.
func spin(n int64) {
	for i := int64(0); i < n/4; i++ {
		sink += i & 1
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the code: the
// same workloads, and the same metrics with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in code", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
}
