package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// target is one workload's system under test plus the benchmark's own
// model of the results it must return. Only exec runs inside the timed
// region; next and verify run between ops, outside it.
type target interface {
	// next prepares the next op and reports whether it is an update,
	// with a hash of the op's parameters.
	next() (update bool, opHash uint64)
	// skip passes over the next n ops of the sequence without running
	// them.
	skip(n int)
	// exec runs the prepared op through the program's public entry
	// points.
	exec() error
	// verify checks the op's result against the model, folds the op
	// into the model, and returns a digest of the result.
	verify() (uint64, error)
	// counts returns the layers' cumulative counters.
	counts() counts
	// trace starts attributing time to c's spans; nil stops it.
	trace(c *spanClock)
	// micro times single layer entry points on this database. It runs
	// after the measured ops, and may change the database.
	micro() (map[string]float64, error)
}

// spec describes one workload.
type spec struct {
	name string
	// build sets up a fresh database for seed and returns it with the
	// time the program's own set-up took.
	build func(seed int64) (target, time.Duration, error)
	// warmup ops run untimed before measuring, so the caches reach
	// steady state; the same ops on every run of a seed.
	warmup int
	// countOps is the length of the measured prefix over which layer
	// counts are taken: a fixed op count, so counts repeat exactly.
	countOps int
	// partOps is how far into the seed's op sequence each measuring
	// process starts after the one before it (see runWorkload).
	partOps int
}

// counts are cumulative layer counters.
type counts struct {
	diskReads, diskWrites                   int64
	pins, poolHits, poolMisses, poolFlushes int64
	cacheHits, cacheMisses                  int64
	cacheEvictions, cacheInvalidations      int64
}

func (c counts) sub(o counts) counts {
	return counts{
		diskReads: c.diskReads - o.diskReads, diskWrites: c.diskWrites - o.diskWrites,
		pins: c.pins - o.pins, poolHits: c.poolHits - o.poolHits,
		poolMisses: c.poolMisses - o.poolMisses, poolFlushes: c.poolFlushes - o.poolFlushes,
		cacheHits: c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
		cacheEvictions:     c.cacheEvictions - o.cacheEvictions,
		cacheInvalidations: c.cacheInvalidations - o.cacheInvalidations,
	}
}

// phase is what one stretch of closed-loop ops measured.
type phase struct {
	ops, failed int
	firstErr    error
	opNs, cpuNs int64
	tracedOps   int   // ops run with span timing on
	tracedCpuNs int64 // their CPU time
	// Per block of blockNs summed op time: ops per second, CPU ns per
	// op, and the most live heap bytes seen.
	blockRate, blockCpu, blockHeap []float64
	retrieveNs                     []int64
	updateNs                       []int64
	// Heap allocations (objects and bytes) and completed GC cycles,
	// summed over the ops' calls into the program.
	allocs, allocBytes, gcCycles float64
	prefix                       counts // layer counters over the first prefixOps ops
	prefixOps                    int    // countOps, unless the phase stopped early
	digest                       uint64 // results of the first countOps ops
	opDigest                     uint64 // parameters of the first countOps ops
}

// rtSamples are the runtime/metrics read around every call into the
// program. They are read into a fixed slice, so reading them allocates
// nothing.
var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// rtCounts are heap objects allocated, bytes allocated and GC cycles
// completed so far.
type rtCounts struct{ objects, bytes, cycles float64 }

func readRuntime() rtCounts {
	metrics.Read(rtSamples)
	v := func(i int) float64 { return float64(rtSamples[i].Value.Uint64()) }
	return rtCounts{objects: v(0) + v(1), bytes: v(2), cycles: v(3)}
}

// heapSample reads the heap the last GC cycle found live: unlike the
// heap's momentary size it does not depend on when the GC ran.
var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func liveHeapBytes() float64 {
	metrics.Read(heapSample)
	return float64(heapSample[0].Value.Uint64())
}

// cpuNs is the process's user plus system CPU time, all threads.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// blockNs is the summed op time of one block. Throughput, CPU per op and
// peak heap are reported as medians over blocks, so a burst of load from
// outside the benchmark, or one GC cycle that catches a large transient
// result live, does not move them.
const blockNs = 250e6

// maxFailures stops a phase early: past it the program is broken and
// more ops only burn time.
const maxFailures = 100

// runPhase drives t with one closed-loop client, no think time: each op
// is sent as soon as the previous one returned and was verified. It
// stops once the summed op time reaches budget and at least minOps ops
// ran. Counters and digests cover the first countOps ops. Allocations
// and GC cycles are read just before and after each call into the
// program, so the benchmark's own work between ops (preparing an op,
// checking its result, renewing a database) is left out of them.
//
// With clock set, every second op runs with span timing into clock;
// latencies are then recorded for the untraced ops only. Interleaving
// gives both halves the same mix of ops and database states, so their
// CPU per op differs by the tracing overhead alone.
func runPhase(t target, budget time.Duration, minOps, countOps int, clock *spanClock) phase {
	var p phase
	var blkOps int
	var blkNs, blkCpu int64
	var blkHeap float64
	endBlock := func() {
		p.blockRate = append(p.blockRate, float64(blkOps)/(float64(blkNs)/1e9))
		p.blockCpu = append(p.blockCpu, float64(blkCpu)/float64(blkOps))
		p.blockHeap = append(p.blockHeap, blkHeap)
		blkOps, blkNs, blkCpu, blkHeap = 0, 0, 0, 0
	}
	p.retrieveNs = make([]int64, 0, 1<<16)
	p.updateNs = make([]int64, 0, 1<<14)
	start := t.counts()
	runtime.GC()
	for (p.opNs < budget.Nanoseconds() || p.ops < minOps) && p.failed < maxFailures {
		update, opHash := t.next()
		traced := clock != nil && p.ops%2 == 1
		if traced {
			t.trace(clock)
		} else if clock != nil {
			t.trace(nil)
		}
		rt0 := readRuntime()
		c0 := cpuNs()
		t0 := time.Now()
		err := t.exec()
		d := time.Since(t0).Nanoseconds()
		cpu := cpuNs() - c0
		rt1 := readRuntime()
		p.allocs += rt1.objects - rt0.objects
		p.allocBytes += rt1.bytes - rt0.bytes
		p.gcCycles += rt1.cycles - rt0.cycles
		p.cpuNs += cpu
		p.opNs += d
		p.ops++
		blkOps++
		blkNs += d
		blkCpu += cpu
		if p.ops%4 == 0 {
			blkHeap = math.Max(blkHeap, liveHeapBytes())
		}
		if blkNs >= blockNs {
			endBlock()
		}
		switch {
		case traced:
			p.tracedOps++
			p.tracedCpuNs += cpu
		case update:
			p.updateNs = append(p.updateNs, d)
		default:
			p.retrieveNs = append(p.retrieveNs, d)
		}
		var digest uint64
		if err == nil {
			digest, err = t.verify()
		}
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("op %d: %w", p.ops, err)
			}
		}
		if p.ops <= countOps {
			p.digest = fold(p.digest, digest)
			p.opDigest = fold(p.opDigest, opHash)
			if p.ops == countOps {
				p.prefix, p.prefixOps = t.counts().sub(start), p.ops
			}
		}
	}
	if p.ops < countOps {
		p.prefix, p.prefixOps = t.counts().sub(start), p.ops
	}
	if len(p.blockRate) == 0 && blkOps > 0 {
		endBlock()
	}
	return p
}

// fold mixes v into a running digest (order-sensitive).
func fold(digest, v uint64) uint64 { return mix(digest ^ mix(v+0x9e3779b97f4a7c15)) }

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// multiset hashes a bag of values independently of their order: a
// strategy may return a retrieve's values in any order.
type multiset struct {
	sum uint64
	n   int
}

func (m *multiset) add(v int64) { m.sum += mix(uint64(v)); m.n++ }

func (m multiset) digest() uint64 { return mix(m.sum ^ uint64(m.n)) }

func (m multiset) check(want multiset) error {
	if m != want {
		return fmt.Errorf("result mismatch: %d values (hash %x), model says %d (hash %x)", m.n, m.sum, want.n, want.sum)
	}
	return nil
}

// percentileUs returns the nearest-rank q-quantile of ns samples, in
// microseconds; 0 without samples.
func percentileUs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / 1e3
}

// tailGroup is the fewest samples a group of tailUs holds.
const tailGroup = 500

// tailUs returns a tail quantile of ns, in microseconds, as the median
// over consecutive groups of at least tailGroup samples of each group's
// nearest-rank q-quantile. Samples run in time order, so a slow spell of
// the host fills the tail of a few groups only, not of the whole
// process, the way it would with one quantile over all samples.
func tailUs(ns []int64, q float64) float64 {
	k := max(len(ns)/tailGroup, 1)
	per := make([]float64, k)
	for i := range per {
		per[i] = percentileUs(ns[i*len(ns)/k:(i+1)*len(ns)/k], q)
	}
	return median(per)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// A measuring process builds its database again and again until the
// builds have taken setupBudget, at least once; setup_s is the median
// build, and the last build is the one measured.
// The run's procs processes together build for about a second. The GC is
// off during each build and runs between builds, untimed, and the freed
// heap goes back to the OS before each build, so every build takes its
// memory from the OS as the first build of a process does, and its time
// does not depend on how much heap the previous one left.
const setupBudget = time.Second / procs

// build returns the free heap to the OS, runs sp.build once with the GC
// off, then collects.
func build(sp spec, seed int64) (target, time.Duration, error) {
	debug.FreeOSMemory()
	gc := debug.SetGCPercent(-1)
	t, d, err := sp.build(seed)
	debug.SetGCPercent(gc)
	runtime.GC()
	return t, d, err
}

// outcome is one run of one workload.
type outcome struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]float64
}

// runWorkload sets up sp's database, warms it up, and measures it for
// budget. With trace set it measures the per-layer metrics instead,
// with span timing on for every second op.
//
// Measuring process number part starts part*sp.partOps ops into the
// seed's op sequence, so a run's processes together measure one long
// stretch of it instead of each repeating its first few thousand ops;
// the mix of op sizes in a run then depends less on the seed. Every
// process still starts from the same freshly built database.
func runWorkload(sp spec, seed int64, part int, budget time.Duration, trace bool) (*outcome, error) {
	var t target
	var setup []float64
	var spent time.Duration
	for spent < setupBudget {
		t = nil // let the previous build be collected
		var d time.Duration
		var err error
		if t, d, err = build(sp, seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		setup = append(setup, d.Seconds())
		spent += d
	}
	t.skip(part * sp.partOps)
	warm := runPhase(t, 0, sp.warmup, 0, nil)
	out := &outcome{attempted: warm.ops, failed: warm.failed, firstErr: warm.firstErr, metrics: map[string]float64{}}
	record := func(p phase) {
		out.attempted += p.ops
		out.failed += p.failed
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	m := out.metrics
	if !trace {
		p := runPhase(t, budget, sp.countOps, sp.countOps, nil)
		record(p)
		endToEnd(m, p)
		m["setup_s"] = median(setup)
		countMetrics(m, p)
		return out, nil
	}
	clock := newSpanClock()
	p := runPhase(t, budget, sp.countOps, sp.countOps, clock)
	t.trace(nil)
	record(p)
	countMetrics(m, p)
	if sp.name == "objapi-mixed" {
		// The facade's cache is the only outside cache this workload has.
		m["corep.cache_hit_rate"] = m["cache.hit_rate"]
	}
	layerTimes(m, clock, p.tracedOps)
	untraced := p.ops - p.tracedOps
	m["trace.overhead_frac"] = float64(p.tracedCpuNs)/float64(p.tracedOps)/(float64(p.cpuNs-p.tracedCpuNs)/float64(untraced)) - 1
	opMetrics(m, p)
	micro, err := t.micro()
	if err != nil {
		return nil, fmt.Errorf("%s: layer timings: %w", sp.name, err)
	}
	for k, v := range micro {
		m[k] = v
	}
	return out, nil
}

// endToEnd derives the user-visible metrics of a timed phase.
func endToEnd(m map[string]float64, p phase) {
	ops := float64(p.ops)
	m["ops_per_s"] = median(p.blockRate)
	m["retrieve_p50_us"] = percentileUs(p.retrieveNs, 0.50)
	m["retrieve_p99_us"] = tailUs(p.retrieveNs, 0.99)
	m["cpu_us_per_op"] = median(p.blockCpu) / 1e3
	m["allocs_per_op"] = p.allocs / ops
	m["alloc_bytes_per_op"] = p.allocBytes / ops
	m["heap_peak_mb"] = median(p.blockHeap) / (1 << 20)
	opMetrics(m, p)
}

// opMetrics derives what both kinds of run report besides their own
// metrics: update latencies, sample counts and GC cycles.
func opMetrics(m map[string]float64, p phase) {
	m["update_p50_us"] = percentileUs(p.updateNs, 0.50)
	m["update_p99_us"] = tailUs(p.updateNs, 0.99)
	m["retrieve_samples"] = float64(len(p.retrieveNs))
	m["update_samples"] = float64(len(p.updateNs))
	m["gc.cycles_per_kop"] = 1000 * p.gcCycles / float64(p.ops)
}

// countMetrics derives the exact per-op layer counts of a phase's
// fixed-length prefix.
func countMetrics(m map[string]float64, p phase) {
	c := p.prefix
	ops := float64(max(p.prefixOps, 1))
	m["disk.reads_per_op"] = float64(c.diskReads) / ops
	m["disk.writes_per_op"] = float64(c.diskWrites) / ops
	m["io_per_op"] = float64(c.diskReads+c.diskWrites) / ops
	m["buffer.pins_per_op"] = float64(c.pins) / ops
	m["buffer.hit_rate"] = ratio(c.poolHits, c.poolHits+c.poolMisses)
	m["buffer.flushes_per_op"] = float64(c.poolFlushes) / ops
	m["cache.hit_rate"] = ratio(c.cacheHits, c.cacheHits+c.cacheMisses)
	m["cache.evictions_per_op"] = float64(c.cacheEvictions) / ops
	m["cache.invalidations_per_op"] = float64(c.cacheInvalidations) / ops
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerTimes turns span self times into microseconds per op.
func layerTimes(m map[string]float64, c *spanClock, ops int) {
	per := func(match func(string) bool) float64 { return c.selfUs(match) / float64(ops) }
	is := func(name string) func(string) bool { return func(s string) bool { return s == name } }
	stage := func(suffix string) func(string) bool {
		return func(s string) bool { return strings.HasPrefix(s, "strategy.") && strings.HasSuffix(s, suffix) }
	}
	m["cache.insert_us_per_op"] = per(is("cache.insert"))
	m["cache.lookup_us_per_op"] = per(is("cache.lookup"))
	m["cache.invalidate_us_per_op"] = per(is("cache.invalidate"))
	m["query.sort_us_per_op"] = per(is("query.sort"))
	m["query.mergejoin_us_per_op"] = per(is("query.mergejoin"))
	m["strategy.scan_us_per_op"] = per(stage("/scan"))
	m["strategy.probe_us_per_op"] = per(stage("/probe"))
	m["strategy.temp_us_per_op"] = per(stage("/temp"))
	m["corep.query_us_per_op"] = per(is("corep.query"))
	m["corep.path_cached_us_per_op"] = per(is("corep.path_cached"))
	m["corep.update_us_per_op"] = per(is("corep.update"))
}
