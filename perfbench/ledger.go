package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"whisper/internal/trace"
)

// spanTotals accumulates the spans of one name.
type spanTotals struct {
	count int64
	dur   time.Duration
	self  time.Duration
}

// spanAgg sums span durations and self times by span name. A span's self
// time is its duration minus the part of it its child spans cover.
type spanAgg struct {
	mu     sync.Mutex
	byName map[string]*spanTotals
}

func newSpanAgg() *spanAgg { return &spanAgg{byName: make(map[string]*spanTotals)} }

func (a *spanAgg) add(recs []trace.SpanRecord) {
	type interval struct{ start, end time.Time }
	children := make(map[trace.ID][]interval, len(recs))
	for _, r := range recs {
		if r.ParentID != "" {
			children[r.ParentID] = append(children[r.ParentID], interval{r.Start, r.End})
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range recs {
		covered := time.Duration(0)
		if kids := children[r.SpanID]; len(kids) > 0 {
			sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
			var curStart, curEnd time.Time
			for _, k := range kids {
				s, e := k.start, k.end
				if s.Before(r.Start) {
					s = r.Start
				}
				if e.After(r.End) {
					e = r.End
				}
				if !e.After(s) {
					continue
				}
				if curEnd.IsZero() || s.After(curEnd) {
					covered += curEnd.Sub(curStart)
					curStart, curEnd = s, e
				} else if e.After(curEnd) {
					curEnd = e
				}
			}
			covered += curEnd.Sub(curStart)
		}
		t := a.byName[r.Name]
		if t == nil {
			t = &spanTotals{}
			a.byName[r.Name] = t
		}
		t.count++
		t.dur += r.Duration()
		t.self += r.Duration() - covered
	}
}

// merge adds o's totals into a.
func (a *spanAgg) merge(o *spanAgg) {
	o.mu.Lock()
	defer o.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	for name, t := range o.byName {
		mine := a.byName[name]
		if mine == nil {
			mine = &spanTotals{}
			a.byName[name] = mine
		}
		mine.count += t.count
		mine.dur += t.dur
		mine.self += t.self
	}
}

// sum totals every span whose name matches one of the patterns; a
// pattern ending in "*" matches by prefix.
func (a *spanAgg) sum(patterns ...string) spanTotals {
	var out spanTotals
	if a == nil {
		return out
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for name, t := range a.byName {
		for _, p := range patterns {
			if name == p || (strings.HasSuffix(p, "*") && strings.HasPrefix(name, strings.TrimSuffix(p, "*"))) {
				out.count += t.count
				out.dur += t.dur
				out.self += t.self
				break
			}
		}
	}
	return out
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func perOp(x float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return x / float64(ops)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEndNames are the end-to-end metrics, in BENCHMARK.json order.
var endToEndNames = []string{"setup_s", "alloc_kb_per_op", "allocs_per_op", "msgs_per_op",
	"wire_kb_per_op", "recovery_ms", "election_ms"}

// opsPerSecond returns the median over a phase's seconds of the
// operations completed in that second.
func opsPerSecond(p *phaseResult) float64 {
	var tput []float64
	for _, b := range p.buckets {
		tput = append(tput, float64(b.ops)/b.dur.Seconds())
	}
	return median(tput)
}

// endToEnd computes the end-to-end metrics: load figures from the load
// phase, failover figures from the crash measurements.
func endToEnd(setups []time.Duration, load *phaseResult, crash *crashStats) map[string]metric {
	setupS := make([]float64, len(setups))
	for i, s := range setups {
		setupS[i] = s.Seconds()
	}
	d := load.after.mem
	b := load.before.mem
	tr := load.after.traffic.sub(load.before.traffic)
	return map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"alloc_kb_per_op": {perOp(float64(d.TotalAlloc-b.TotalAlloc)/1024, load.ops), "KB"},
		"allocs_per_op":   {perOp(float64(d.Mallocs-b.Mallocs), load.ops), "count"},
		"msgs_per_op":     {perOp(float64(tr.totalMsgs), load.ops), "count"},
		"wire_kb_per_op":  {perOp(float64(tr.totalBytes)/1024, load.ops), "KB"},
		"recovery_ms":     {trimmedMean(durationsMs(crash.recovery)), "ms"},
		"election_ms":     {trimmedMean(durationsMs(crash.election)), "ms"},
	}
}

// perLayer computes the per-layer metrics of a traced run: per-operation
// figures from the traced load phase, per-crash figures from the traced
// crash measurements, and the client's latencies, the process CPU time
// and the tracing overhead from the untraced load phase.
func perLayer(untraced, load *phaseResult, crash *crashStats) map[string]metric {
	ops := load.ops
	tr := load.after.traffic.sub(load.before.traffic)
	sp := load.spans
	plainOpsPerS := opsPerSecond(untraced)
	csp := crash.spans
	crashes := int64(crash.crashes)
	a, b := load.after, load.before
	mhits := float64(a.match.Hits - b.match.Hits)
	mlook := mhits + float64(a.match.Misses-b.match.Misses)
	var hitRatio, followerShare float64
	if mlook > 0 {
		hitRatio = mhits / mlook
	}
	if load.reads > 0 {
		followerShare = float64(load.followers) / float64(load.reads)
	}
	var sendUs float64
	if tr.sends > 0 {
		sendUs = float64(tr.sendNanos) / 1e3 / float64(tr.sends)
	}
	var execsPerWrite float64
	if load.writes > 0 {
		execsPerWrite = float64(a.writeExecs-b.writeExecs) / float64(load.writes)
	}
	m := map[string]metric{
		"simnet.rendezvous.msgs_per_op":  {perOp(float64(tr.msgs["rendezvous"]), ops), "count"},
		"simnet.pipe.msgs_per_op":        {perOp(float64(tr.msgs["pipe"]), ops), "count"},
		"simnet.resolver.msgs_per_op":    {perOp(float64(tr.msgs["resolver"]), ops), "count"},
		"simnet.discovery.msgs_per_op":   {perOp(float64(tr.msgs["discovery"]), ops), "count"},
		"simnet.heartbeat.msgs_per_op":   {perOp(float64(tr.msgs["heartbeat"]), ops), "count"},
		"simnet.pipe.bytes_per_op":       {perOp(float64(tr.bytes["pipe"]), ops), "B"},
		"simnet.send_us_per_msg":         {sendUs, "us"},
		"simnet.sends_per_op":            {perOp(float64(tr.sends), ops), "count"},
		"simnet.election.msgs_per_crash": {perOp(float64(crash.electionMsgs), crashes), "count"},

		"soap.self_us_per_op":  {perOp(us(sp.sum("soap.*").self), ops), "us"},
		"soap.serve_us_per_op": {perOp(us(time.Duration(a.serveNanos-b.serveNanos)), ops), "us"},

		"proxy.invoke.self_us_per_op":      {perOp(us(sp.sum("proxy.invoke").self), ops), "us"},
		"proxy.discovery.us_per_op":        {perOp(us(sp.sum("discovery").dur), ops), "us"},
		"proxy.bind.us_per_op":             {perOp(us(sp.sum("bind", "re-bind").dur), ops), "us"},
		"proxy.call.self_us_per_op":        {perOp(us(sp.sum("call").self), ops), "us"},
		"proxy.match_cache.hit_ratio":      {hitRatio, "ratio"},
		"proxy.match_cache.lookups_per_op": {perOp(mlook, ops), "count"},
		"proxy.read_follower_share":        {followerShare, "ratio"},
		"proxy.balanced_reads_per_op":      {perOp(float64(load.reads), ops), "count"},
		"proxy.rebinds_per_crash":          {perOp(float64(crash.rebinds), crashes), "count"},
		"proxy.election_wait_ms_per_crash": {perOp(ms(csp.sum("election-wait").dur), crashes), "ms"},

		"p2p.discovery.queries_per_op": {perOp(float64((a.disco.Hits+a.disco.Misses)-(b.disco.Hits+b.disco.Misses)), ops), "count"},
		"p2p.resolver.self_us_per_op":  {perOp(us(sp.sum("resolver.*").self), ops), "us"},

		"bpeer.request.self_us_per_op": {perOp(us(sp.sum("bpeer.request").self), ops), "us"},

		"replog.replicate.us_per_op":    {perOp(us(sp.sum("replog.replicate").dur), ops), "us"},
		"replog.replicate.calls_per_op": {perOp(float64(sp.sum("replog.replicate").count), ops), "count"},
		"replog.apply.us_per_op":        {perOp(us(sp.sum("replog.apply").dur), ops), "us"},
		"replog.catchup_ms_per_crash":   {perOp(ms(csp.sum("replog.catchup").dur), crashes), "ms"},

		"backend.us_per_op":           {perOp(us(time.Duration(a.execNanos-b.execNanos)), ops), "us"},
		"backend.executions_per_op":   {execsPerWrite, "count"},
		"election.run_ms_per_crash":   {perOp(ms(csp.sum("election.run").dur), crashes), "ms"},
		"runtime.gc_cycles_per_kop":   {perOp(float64(a.mem.NumGC-b.mem.NumGC)*1000, ops), "count"},
		"runtime.gc_pause_us_per_op":  {perOp(float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e3, ops), "us"},
		"runtime.cpu_us_per_op":       {perOp(us(untraced.after.cpu-untraced.before.cpu), untraced.ops), "us"},
		"trace.overhead_us_per_op":    {us(percentile(load.lat, 0.5) - percentile(untraced.lat, 0.5)), "us"},
		"client.latency_p50_ms":       {ms(percentile(untraced.lat, 0.50)), "ms"},
		"client.write_latency_p50_ms": {ms(percentile(untraced.wlat, 0.50)), "ms"},
		"client.latency_p99_ms":       {ms(percentile(untraced.lat, 0.99)), "ms"},
		"client.throughput_ops_s":     {plainOpsPerS, "1/s"},
		"runtime.max_rss_mb":          {float64(untraced.maxRSSKB) / 1024, "MB"},
		"client.retries_per_op":       {perOp(float64(load.retries), ops), "count"},
	}
	return m
}
