package harness

import (
	"testing"
	"time"

	"corep/internal/strategy"
	"corep/internal/workload"
)

// TestWatchdogReportsDeadlock drives the sweep loop with a schedule body
// that blocks past the 50 ms timeout: that schedule must come back as
// exactly one deadlock violation, promptly, while the schedule that
// finishes in time keeps its own result.
func TestWatchdogReportsDeadlock(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // lets the abandoned body exit
	sw := sweep{kinds: []strategy.Kind{strategy.DFS}, schedules: 1, seed: 7, timeout: 50 * time.Millisecond}
	start := time.Now()
	runs := runSweep(sw, workload.Config{}, true,
		func(_ strategy.Kind, _ workload.Config, seed int64, control bool) []Violation {
			if !control {
				<-release
			}
			return []Violation{}
		},
		func(_ int64, vs []Violation) []Violation { return vs })
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("sweep took %s: the watchdog waited for the blocked body", waited)
	}
	if len(runs) != 1 || len(runs[0]) != 2 {
		t.Fatalf("got runs %v, want one strategy with a control and one schedule", runs)
	}
	if ctl := runs[0][0]; ctl == nil || len(ctl) != 0 {
		t.Fatalf("control run = %v, want its own empty result", ctl)
	}
	vs := runs[0][1]
	if len(vs) != 1 {
		t.Fatalf("got %d violations %v, want exactly one", len(vs), vs)
	}
	if v := vs[0]; v.Kind != "deadlock" || v.Strategy != "DFS" || v.Seed != 7 || v.OpIndex != -1 {
		t.Fatalf("got %s, want a deadlock for DFS seed 7 at op -1", v)
	}
}
