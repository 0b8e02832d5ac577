package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"whisper/internal/p2p"
	"whisper/internal/proxy"
	"whisper/internal/trace"
)

// workload is one traffic mix over one configuration of the system.
type workload struct {
	name string
	// soap sends the clients' requests as SOAP over HTTP on loopback TCP
	// to the service's HTTP handler; otherwise clients call the service's
	// semantic entry point directly. The peers always share a
	// zero-latency simnet.
	soap bool
	// journal keeps the replicated operation journal on (the default
	// configuration); off is the paper configuration (NoJournal).
	journal bool
	// followerReads marks lookups read-only, so any replica serves them
	// behind the read-index barrier.
	followerReads bool
	// clients is the number of closed-loop clients.
	clients int
	// writeEvery is the block size of the op streams: one write per block.
	writeEvery int
	// churn crashes the coordinator throughout the window instead of in a
	// separate crash window after the steady one.
	churn bool
	// interval paces each client: it sends its next operation no earlier
	// than one interval after the previous one was due. The rates sit
	// well below the group's capacity, so the figures measure operations
	// rather than how long the VM's two CPUs were lent to the run.
	interval time.Duration
}

// workloads are the benchmark's workloads; BENCHMARK.json and README.md
// say why each was chosen.
var workloads = []workload{
	{name: "write", journal: true, clients: 1, writeEvery: 1, interval: 2500 * time.Microsecond},
	{name: "read-mix", journal: true, followerReads: true, clients: 2, writeEvery: 10, interval: time.Millisecond},
	{name: "soap-http", soap: true, clients: 1, writeEvery: 10, interval: time.Millisecond},
	{name: "failover", journal: true, clients: 1, writeEvery: 1, churn: true, interval: 5 * time.Millisecond},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// replicas is the group size of every workload.
	replicas = 3
	// setupRounds is how many times an untraced run sets the system up
	// before it measures; setup_s is the median of these and of the
	// crash trials' set-ups.
	setupRounds = 25
	// opDeadline bounds one logical operation, retries included.
	opDeadline = 20 * time.Second
	// retryPause separates client-level retries of a failed operation.
	retryPause = 10 * time.Millisecond
	// warmup is the unmeasured load before a load phase.
	warmup = time.Second
	// settle is the steady traffic between readiness and the next crash.
	settle = 200 * time.Millisecond
	// cycleBudget is the least window time left for another crash cycle.
	cycleBudget = 1500 * time.Millisecond
	// cyclePerCrash sets the churn workload's crash count: one crash per
	// cyclePerCrash of window. A restart cycle takes about 1.1 s, so the
	// crashes fit the window, and a fixed count keeps the per-operation
	// share of failover work the same from run to run.
	cyclePerCrash = 1400 * time.Millisecond
	// agreeTimeout bounds how long survivors may take to agree on a
	// coordinator after a crash.
	agreeTimeout = 5 * time.Second
	// readyTimeout bounds the group's return to readiness after a restart.
	readyTimeout = 10 * time.Second
	// traceCapacity is the span ring size of traced deployments; the ring
	// is drained between operations once it is half full.
	traceCapacity = 1 << 15
	drainAt       = traceCapacity / 2
)

// crashMode says whether and how a phase crashes the coordinator.
type crashMode int

const (
	noCrash crashMode = iota
	// crashOnce crashes the coordinator once; the phase ends when the
	// service has recovered and the survivors agree on a coordinator.
	crashOnce
	// crashChurn crashes the coordinator, restarts the crashed replica
	// once the service has recovered, and repeats until the phase ends.
	crashChurn
)

// phaseSpec describes one measured phase.
type phaseSpec struct {
	tag        string
	dur        time.Duration
	clients    int
	writeEvery int
	interval   time.Duration
	crash      crashMode
	// maxCrashes ends a churn phase's crash cycles after this many.
	maxCrashes int
}

// counters is a snapshot of every probe and process counter.
type counters struct {
	at         time.Time
	cpu        time.Duration
	mem        runtime.MemStats
	traffic    traffic
	match      proxy.MatchCacheStats
	disco      p2p.DiscoveryStats
	execNanos  int64
	writeExecs int64
	serveNanos int64
	rebinds    int64
}

func processCPU() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

func snapshotCounters(c *cluster) counters {
	s := counters{at: time.Now()}
	s.cpu, _ = processCPU()
	runtime.ReadMemStats(&s.mem)
	s.traffic = c.tled.snapshot()
	s.match = c.svc.Proxy().MatchCacheStats()
	s.disco = c.svc.Proxy().DiscoveryStats()
	s.execNanos = c.exec.nanos.Load()
	s.writeExecs = c.exec.writeExecs.Load()
	s.serveNanos = c.serve.nanos.Load()
	s.rebinds = c.svc.Proxy().Rebinds()
	return s
}

// bucket is one second of a phase and the operations completed in it.
type bucket struct {
	dur time.Duration
	ops int64
}

// phaseResult is everything one phase measured.
type phaseResult struct {
	attempted, failed int64
	retries           int64
	ops, writes       int64
	lat, wlat         []time.Duration
	elapsed           time.Duration
	buckets           []bucket
	before, after     counters
	maxRSSKB          int64
	reads, followers  int64
	ackedKeys         []string
	spans             *spanAgg
	crashes           int
	recovery          []time.Duration
	election          []time.Duration
}

// runner runs one workload for one seed and collects check failures.
type runner struct {
	w    workload
	seed int64
	m    *model
	inj  *injector

	mu       sync.Mutex
	problems []string
}

// fail records a failed check.
func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// call performs one logical operation, re-driving it after a failure
// until it succeeds or opDeadline passes. A payment keeps its key, so a
// journaling group executes it once however often it is re-driven.
func (r *runner) call(ctx context.Context, c *cluster, o op) ([]byte, int, error) {
	deadline := time.Now().Add(opDeadline)
	retries := 0
	for {
		actx, cancel := context.WithDeadline(ctx, deadline)
		reply, err := c.invoke(actx, o)
		cancel()
		if err == nil {
			return reply, retries, nil
		}
		if ctx.Err() != nil || time.Now().Add(retryPause).After(deadline) {
			return nil, retries, err
		}
		retries++
		select {
		case <-ctx.Done():
		case <-time.After(retryPause):
		}
	}
}

// warm primes discovery, binding and the match cache with one write and
// a few reads, checking each reply.
func (r *runner) warm(ctx context.Context, c *cluster) error {
	ops := []op{{write: true, student: r.m.ids[0], key: "warm", amount: 1}}
	for i := 0; i < 4; i++ {
		ops = append(ops, op{student: r.m.ids[i]})
	}
	for _, o := range ops {
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		reply, err := c.invoke(wctx, o)
		cancel()
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", o.body(), err)
		}
		if err := r.m.check(o, reply); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// drain moves the spans of a traced deployment into agg. Clients pause
// while the ring is read, so no operation is cut in two.
func drain(gate *sync.RWMutex, col *trace.Collector, agg *spanAgg, force bool) {
	gate.Lock()
	if !force && col.Len() < drainAt {
		gate.Unlock()
		return
	}
	time.Sleep(2 * time.Millisecond) // let follower-side spans of the last op land
	recs := col.Snapshot()
	col.Reset()
	gate.Unlock()
	agg.add(recs)
}

// phase runs the clients for ps.dur, or until the crash is measured with
// crashOnce, crashing the coordinator as ps.crash says while they run.
func (r *runner) phase(ctx context.Context, c *cluster, ps phaseSpec) (*phaseResult, error) {
	res := &phaseResult{}
	col := c.dep.TraceCollector()
	var gate sync.RWMutex
	if col != nil {
		res.spans = newSpanAgg()
		col.Reset()
	}
	coord := c.group.coordinator()
	reads0, followers0 := c.reads.snapshot(coord)
	res.before = snapshotCounters(c)
	start := res.before.at
	end := start.Add(ps.dur)

	var (
		completed atomic.Int64
		lastOK    atomic.Int64
		stopped   atomic.Bool
		mu        sync.Mutex
		wg        sync.WaitGroup
	)

	samplerStop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		prevAt, prevOps := start, int64(0)
		for {
			select {
			case <-samplerStop:
				return
			case now := <-tick.C:
				n := completed.Load()
				mu.Lock()
				res.buckets = append(res.buckets, bucket{dur: now.Sub(prevAt), ops: n - prevOps})
				mu.Unlock()
				prevAt, prevOps = now, n
			}
		}
	}()

	for i := 0; i < ps.clients; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			stream := newOpStream(r.m, r.seed, ps.tag, client, ps.writeEvery)
			var lat, wlat []time.Duration
			var keys []string
			var attempted, failed, retries, writes int64
			due := start
			for {
				o, first := stream.next()
				if first && (stopped.Load() || !time.Now().Before(end) || ctx.Err() != nil) {
					break
				}
				if ps.interval > 0 {
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
					due = due.Add(ps.interval)
				}
				gate.RLock()
				t0 := time.Now()
				reply, tries, err := r.call(ctx, c, o)
				done := time.Now()
				gate.RUnlock()
				attempted++
				retries += int64(tries)
				if err != nil {
					failed++
					r.fail("%s: operation failed after %d retries: %v", o.body(), tries, err)
				} else {
					if cerr := r.m.check(o, reply); cerr != nil {
						r.fail("%v", cerr)
					}
					lastOK.Store(done.UnixNano())
					completed.Add(1)
					lat = append(lat, done.Sub(t0))
					if o.write {
						writes++
						wlat = append(wlat, done.Sub(t0))
						keys = append(keys, o.key)
					}
				}
				if col != nil && col.Len() >= drainAt {
					drain(&gate, col, res.spans, false)
				}
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.wlat = append(res.wlat, wlat...)
			res.ackedKeys = append(res.ackedKeys, keys...)
			res.attempted += attempted
			res.failed += failed
			res.retries += retries
			res.writes += writes
			mu.Unlock()
		}(i)
	}

	var fatal error
	if ps.crash != noCrash {
		fatal = r.crashLoop(ctx, c, &gate, end, &lastOK, res, ps)
		if fatal != nil || ps.crash == crashOnce {
			stopped.Store(true)
		}
	}
	wg.Wait()
	close(samplerStop)
	<-samplerDone
	if col != nil {
		drain(&gate, col, res.spans, true)
	}
	res.after = snapshotCounters(c)
	res.elapsed = res.after.at.Sub(start)
	_, res.maxRSSKB = processCPU()
	res.ops = completed.Load()
	reads, followers := c.reads.snapshot(coord)
	res.reads, res.followers = reads-reads0, followers-followers0
	return res, fatal
}

// crashLoop crashes the coordinator once the group has a stable one and
// times the election and the first successful reply after the crash.
// With crashChurn it then restarts the crashed replica and repeats, up to
// ps.maxCrashes crashes and while the window has room for another cycle.
func (r *runner) crashLoop(ctx context.Context, c *cluster, gate *sync.RWMutex, end time.Time,
	lastOK *atomic.Int64, res *phaseResult, ps phaseSpec) error {
	for ctx.Err() == nil {
		old, err := stableCoordinator(ctx, c)
		if err != nil {
			return fmt.Errorf("before crash %d: %w", res.crashes+1, err)
		}
		name, err := c.coordinatorName(old)
		if err != nil {
			return err
		}
		gate.Lock()
		crashAt := time.Now()
		err = c.group.crash(name)
		gate.Unlock()
		if err != nil {
			return fmt.Errorf("crash %s: %w", name, err)
		}
		res.crashes++
		c.exec.inj.arm(injectSplitView)

		var electedAt, recoveredAt time.Time
		for electedAt.IsZero() || recoveredAt.IsZero() {
			now := time.Now()
			if electedAt.IsZero() {
				if _, ok := c.agreed(old); ok {
					electedAt = now
				} else if now.Sub(crashAt) > agreeTimeout {
					r.fail("crash %d: surviving replicas did not agree on one running coordinator within %v: %v",
						res.crashes, agreeTimeout, c.coordinatorView())
					c.exec.inj.disarm()
					electedAt = now
				}
			}
			if recoveredAt.IsZero() {
				if t := lastOK.Load(); t > crashAt.UnixNano() {
					recoveredAt = time.Unix(0, t)
				} else if now.Sub(crashAt) > opDeadline+time.Second {
					return fmt.Errorf("crash %d: no successful reply within %v", res.crashes, opDeadline)
				}
			}
			time.Sleep(time.Millisecond)
		}
		c.exec.inj.disarm()
		res.election = append(res.election, electedAt.Sub(crashAt))
		res.recovery = append(res.recovery, recoveredAt.Sub(crashAt))
		if ps.crash != crashChurn || res.crashes >= ps.maxCrashes || time.Until(end) <= cycleBudget {
			return nil
		}

		rctx, cancel := context.WithTimeout(ctx, readyTimeout)
		err = c.group.restart(rctx, name)
		cancel()
		if err != nil {
			return fmt.Errorf("restart %s after crash %d: %w", name, res.crashes, err)
		}
	}
	return nil
}

// crashStats gathers the crash measurements of one or more phases.
type crashStats struct {
	crashes            int
	recovery, election []time.Duration
	electionMsgs       int64
	rebinds            int64
	spans              *spanAgg
	attempted, failed  int64
	setups             []time.Duration
}

// add folds a phase's crash measurements in; with counts it also adds
// the phase's operations.
func (cs *crashStats) add(p *phaseResult, counts bool) {
	cs.crashes += p.crashes
	cs.recovery = append(cs.recovery, p.recovery...)
	cs.election = append(cs.election, p.election...)
	cs.electionMsgs += p.after.traffic.msgs["election"] - p.before.traffic.msgs["election"]
	cs.rebinds += p.after.rebinds - p.before.rebinds
	if p.spans != nil {
		if cs.spans == nil {
			cs.spans = newSpanAgg()
		}
		cs.spans.merge(p.spans)
	}
	if counts {
		cs.attempted += p.attempted
		cs.failed += p.failed
	}
}

// measure runs the workload's phases and closes c. The churn workload
// runs one phase of restart cycles over the whole window; it is both the
// load and the crash measurement. The others run a steady load phase on
// c for 3/5 of the window after an unmeasured warm-up second, then, with
// trials, crash trials for the rest.
func (r *runner) measure(ctx context.Context, c *cluster, window time.Duration, tag string, traced, trials bool) (*phaseResult, *crashStats, error) {
	cs := &crashStats{}
	if r.w.churn {
		p, err := r.phase(ctx, c, phaseSpec{tag: tag, dur: window, clients: r.w.clients,
			writeEvery: r.w.writeEvery, interval: r.w.interval, crash: crashChurn,
			maxCrashes: max(1, int(window/cyclePerCrash))})
		r.checkCluster(c, p)
		c.close()
		if err != nil {
			return nil, nil, err
		}
		cs.add(p, false)
		return p, cs, nil
	}
	warm, err := r.phase(ctx, c, phaseSpec{tag: tag + "-warm", dur: warmup, clients: r.w.clients,
		writeEvery: r.w.writeEvery, interval: r.w.interval})
	var load *phaseResult
	if err == nil {
		load, err = r.phase(ctx, c, phaseSpec{tag: tag + "-load", dur: window * 3 / 5, clients: r.w.clients,
			writeEvery: r.w.writeEvery, interval: r.w.interval})
	}
	r.checkCluster(c, warm, load)
	c.close()
	cs.attempted, cs.failed = warm.attempted, warm.failed
	if err != nil || !trials {
		return load, cs, err
	}
	err = r.crashTrials(ctx, window-window*3/5, tag, traced, cs)
	return load, cs, err
}

// crashTrials repeats, until dur has passed (at least once): deploy a
// fresh group, run one writing client, crash the coordinator once and
// measure the recovery, check the deployment and tear it down. The
// crashed replica is not restarted; restarts are the churn workload's.
func (r *runner) crashTrials(ctx context.Context, dur time.Duration, tag string, traced bool, cs *crashStats) error {
	end := time.Now().Add(dur)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		c, took, err := r.setup(ctx, 1, traced)
		if err != nil {
			return fmt.Errorf("crash trial %d: %w", i+1, err)
		}
		cs.setups = append(cs.setups, took...)
		p, err := r.phase(ctx, c, phaseSpec{tag: fmt.Sprintf("%s-crash%d", tag, i), dur: opDeadline,
			clients: 1, writeEvery: 1, crash: crashOnce})
		r.checkCluster(c, p)
		c.close()
		if err != nil {
			return fmt.Errorf("crash trial %d: %w", i+1, err)
		}
		cs.add(p, true)
	}
	return nil
}

// stableCoordinator waits until the group is ready and every running
// replica names the same coordinator over a settle interval of steady
// traffic, and returns it.
func stableCoordinator(ctx context.Context, c *cluster) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	for {
		if err := c.group.waitReady(ctx); err != nil {
			return "", err
		}
		before, ok := c.agreed("")
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("group %s: coordinator not stable: %w", groupName, ctx.Err())
		case <-time.After(settle):
		}
		if after, ok2 := c.agreed(""); ok && ok2 && before == after {
			return after, nil
		}
	}
}

// percentile returns the q-quantile (0..1) of ds by nearest rank.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// trimmedMean returns the mean of xs without its lowest and highest
// fifth.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 5
	s = s[cut : len(s)-cut]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
