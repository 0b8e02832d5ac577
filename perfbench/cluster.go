package main

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"whisper/internal/backend"
	"whisper/internal/bpeer"
	"whisper/internal/core"
	"whisper/internal/ontology"
	"whisper/internal/replog"
	"whisper/internal/simnet"
	"whisper/internal/soap"
	"whisper/internal/wsdl"
)

// groupName is the b-peer group behind the service.
const groupName = "StudentManagement"

// timings are the protocol timeouts of every deployment: the values the
// repository's own experiments use (50 ms heartbeats, 200 ms failure
// detection, 100 ms election timeout).
var timings = core.Timings{
	HeartbeatInterval: 50 * time.Millisecond,
	HeartbeatTimeout:  200 * time.Millisecond,
	ElectionTimeout:   100 * time.Millisecond,
	LeaseInterval:     500 * time.Millisecond,
	RendezvousLease:   5 * time.Second,
	BindTimeout:       time.Second,
	CallTimeout:       time.Second,
	RetryDelay:        50 * time.Millisecond,
}

// --- transport probe ---------------------------------------------------

// knownProtos are the protocol tags the program sends on; each gets
// lock-free counters.
var knownProtos = []string{"rendezvous", "pipe", "resolver", "discovery", "heartbeat",
	"election", "binding", "tracing", "gossip", "relay"}

type protoCounter struct{ msgs, bytes atomic.Int64 }

// transportLedger counts what the wrapped transports send, per protocol.
type transportLedger struct {
	perProto  map[string]*protoCounter // fixed after construction
	other     protoCounter
	sends     atomic.Int64
	sendNanos atomic.Int64
}

func newTransportLedger() *transportLedger {
	l := &transportLedger{perProto: make(map[string]*protoCounter, len(knownProtos))}
	for _, p := range knownProtos {
		l.perProto[p] = &protoCounter{}
	}
	return l
}

// traffic is a snapshot of a transportLedger.
type traffic struct {
	msgs, bytes      map[string]int64
	totalMsgs        int64
	totalBytes       int64
	sends, sendNanos int64
}

func (l *transportLedger) snapshot() traffic {
	t := traffic{msgs: map[string]int64{}, bytes: map[string]int64{}}
	for p, c := range l.perProto {
		t.msgs[p], t.bytes[p] = c.msgs.Load(), c.bytes.Load()
		t.totalMsgs += t.msgs[p]
		t.totalBytes += t.bytes[p]
	}
	t.msgs["other"], t.bytes["other"] = l.other.msgs.Load(), l.other.bytes.Load()
	t.totalMsgs += t.msgs["other"]
	t.totalBytes += t.bytes["other"]
	t.sends, t.sendNanos = l.sends.Load(), l.sendNanos.Load()
	return t
}

// sub returns the traffic between an earlier snapshot and t.
func (t traffic) sub(o traffic) traffic {
	d := traffic{msgs: map[string]int64{}, bytes: map[string]int64{},
		totalMsgs: t.totalMsgs - o.totalMsgs, totalBytes: t.totalBytes - o.totalBytes,
		sends: t.sends - o.sends, sendNanos: t.sendNanos - o.sendNanos}
	for p := range t.msgs {
		d.msgs[p] = t.msgs[p] - o.msgs[p]
		d.bytes[p] = t.bytes[p] - o.bytes[p]
	}
	return d
}

// countingTransport wraps a transport endpoint and records every send:
// protocol, accounted wire size (simnet.Message.Size with the addresses
// the transport stamps) and the time Send took.
type countingTransport struct {
	simnet.Transport
	led *transportLedger
}

func (t countingTransport) Send(to string, msg simnet.Message) error {
	sized := msg
	sized.Src, sized.Dst = t.Transport.Addr(), to
	size := int64(sized.Size())
	start := time.Now()
	err := t.Transport.Send(to, msg)
	t.led.sendNanos.Add(int64(time.Since(start)))
	t.led.sends.Add(1)
	c := t.led.perProto[msg.Proto]
	if c == nil {
		c = &t.led.other
	}
	c.msgs.Add(1)
	c.bytes.Add(size)
	return err
}

// wrapFactory wraps every endpoint the factory opens.
func wrapFactory(f core.TransportFactory, led *transportLedger) core.TransportFactory {
	return func(name string) (simnet.Transport, error) {
		tr, err := f(name)
		if err != nil {
			return nil, err
		}
		return countingTransport{Transport: tr, led: led}, nil
	}
}

// --- handler probe -----------------------------------------------------

// execLedger wraps every replica's handler: it times the handler and
// records, per payment key, how many times any replica executed it.
type execLedger struct {
	inj *injector

	nanos      atomic.Int64
	writeExecs atomic.Int64

	mu    sync.Mutex
	execs map[string]int
}

func newExecLedger(inj *injector) *execLedger {
	return &execLedger{inj: inj, execs: make(map[string]int)}
}

func (l *execLedger) wrap(h bpeer.Handler) bpeer.Handler {
	return bpeer.HandlerFunc(func(ctx context.Context, opName string, payload []byte) ([]byte, error) {
		start := time.Now()
		out, err := h.Invoke(ctx, opName, payload)
		if opName == opWrite {
			l.record(payload)
			if l.inj.fire(injectDoubleExec) {
				out, err = h.Invoke(ctx, opName, payload)
				l.record(payload)
			}
		}
		l.nanos.Add(int64(time.Since(start)))
		if err == nil && l.inj.fire(injectCorruptReply) {
			out = bytes.Replace(out, []byte("</"), []byte("X</"), 1)
		}
		return out, err
	})
}

func (l *execLedger) record(payload []byte) {
	key := elementText(payload, "Key")
	l.writeExecs.Add(1)
	l.mu.Lock()
	l.execs[key]++
	l.mu.Unlock()
}

// executions returns how often the key was executed.
func (l *execLedger) executions(key string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.execs[key]
}

// duplicates returns up to max keys executed more than once.
func (l *execLedger) duplicates(max int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for k, n := range l.execs {
		if n > 1 && len(out) < max {
			out = append(out, k+"×"+strconv.Itoa(n))
		}
	}
	return out
}

// elementText returns the text of the first <name> element in an XML
// fragment ("" when absent).
func elementText(doc []byte, name string) string {
	open := []byte("<" + name + ">")
	i := bytes.Index(doc, open)
	if i < 0 {
		return ""
	}
	rest := doc[i+len(open):]
	j := bytes.IndexByte(rest, '<')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// appHandler is the replica's application: student lookups from its
// store and payments booked into a per-replica ledger.
func appHandler(store backend.StudentStore) bpeer.Handler {
	var mu sync.Mutex
	balance := make(map[string]int64)
	return bpeer.HandlerFunc(func(_ context.Context, opName string, payload []byte) ([]byte, error) {
		switch opName {
		case opRead:
			var req struct {
				XMLName   xml.Name `xml:"StudentInformation"`
				StudentID string   `xml:"StudentID"`
			}
			if err := xml.Unmarshal(payload, &req); err != nil {
				return nil, fmt.Errorf("bad lookup: %w", err)
			}
			rec, err := store.Student(req.StudentID)
			if err != nil {
				return nil, err
			}
			return xml.Marshal(studentInfo{XMLName: xml.Name{Local: "StudentRecord"}, StudentRecord: rec})
		case opWrite:
			var req struct {
				XMLName   xml.Name `xml:"RecordPayment"`
				Key       string   `xml:"Key"`
				StudentID string   `xml:"StudentID"`
				Amount    int64    `xml:"Amount"`
			}
			if err := xml.Unmarshal(payload, &req); err != nil {
				return nil, fmt.Errorf("bad payment: %w", err)
			}
			if _, err := store.Student(req.StudentID); err != nil {
				return nil, err
			}
			mu.Lock()
			balance[req.StudentID] += req.Amount
			mu.Unlock()
			return xml.Marshal(receipt{
				XMLName: xml.Name{Local: "PaymentReceipt"}, Key: req.Key, StudentID: req.StudentID,
				Amount: req.Amount, Digest: digest(req.Key, req.StudentID, req.Amount),
			})
		}
		return nil, fmt.Errorf("unknown operation %q", opName)
	})
}

// --- read probe --------------------------------------------------------

// readLedger is the proxy's ReadObserver: it checks the read-index
// property (a follower read observes at least the committed sequence it
// was issued at) and counts which replica served each read.
type readLedger struct {
	inj *injector

	mu         sync.Mutex
	served     map[string]int64
	reads      int64
	violations []string
}

func newReadLedger(inj *injector) *readLedger {
	return &readLedger{inj: inj, served: make(map[string]int64)}
}

func (l *readLedger) observe(replica string, readIndex, readSeq uint64) {
	if l.inj.fire(injectStaleRead) {
		readIndex = readSeq + 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reads++
	l.served[replica]++
	if readSeq < readIndex && len(l.violations) < 5 {
		l.violations = append(l.violations,
			fmt.Sprintf("replica %s served a read at seq %d below its read index %d", replica, readSeq, readIndex))
	}
}

// snapshot returns the reads observed so far and those served by
// replicas other than coord.
func (l *readLedger) snapshot(coord string) (reads, byFollowers int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for r, n := range l.served {
		if r != coord {
			byFollowers += n
		}
	}
	return l.reads, byFollowers
}

// --- SOAP front-end probe ---------------------------------------------

// serveLedger times the service's SOAP HTTP handler.
type serveLedger struct {
	nanos atomic.Int64
}

func (l *serveLedger) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		l.nanos.Add(int64(time.Since(start)))
	})
}

// --- deployment --------------------------------------------------------

// serviceDefs is the benchmark's WSDL-S document: the paper's
// StudentManagement service with a second, state-changing operation.
// Both carry the StudentInformation annotations so one group serves
// both.
func serviceDefs() *wsdl.Definitions {
	d := wsdl.New("StudentManagement", "http://uma.pt/services/StudentManagement")
	d.DeclareNamespace("sm", ontology.UniversityNS)
	itf := d.AddInterface("StudentManagementUMA")
	for _, name := range []string{opRead, opWrite} {
		itf.AddOperation(name, "sm:StudentInformation",
			[]wsdl.MessageRef{wsdl.In("ID", "sm:StudentID")},
			[]wsdl.MessageRef{wsdl.Out("student", "sm:StudentInfo")},
		)
	}
	return d
}

func studentSignature() ontology.Signature {
	return ontology.Signature{
		Action:  ontology.ConceptStudentInformation,
		Inputs:  []string{ontology.ConceptStudentID},
		Outputs: []string{ontology.ConceptStudentInfo},
	}
}

// cluster is one deployed system under test with its probes.
type cluster struct {
	net     *simnet.Network
	dep     *core.Deployment
	group   *replicaGroup
	svc     *core.Service
	srv     *http.Server
	srvDone chan struct{}
	soapc   *soap.Client
	httpT   *http.Transport

	tled  *transportLedger
	exec  *execLedger
	reads *readLedger
	serve *serveLedger
}

// deploy builds the workload's system: a rendezvous, a three-replica
// group and the service over a zero-latency simnet, plus the SOAP HTTP
// server on loopback for SOAP workloads, with every probe in place. With
// tracing the deployment records spans.
func deploy(ctx context.Context, w workload, m *model, tracing bool, inj *injector) (*cluster, error) {
	c := &cluster{tled: newTransportLedger(), exec: newExecLedger(inj),
		reads: newReadLedger(inj), serve: &serveLedger{}}
	c.net = simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1))
	dep, err := core.NewDeployment(core.Config{
		Transport:     wrapFactory(core.SimulatedTransport(c.net), c.tled),
		Seed:          1,
		Timings:       timings,
		Tracing:       tracing,
		TraceCapacity: traceCapacity,
	})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("deployment: %w", err)
	}
	c.dep = dep

	records := m.list()
	factory := wrapFactory(core.SimulatedTransport(c.net), c.tled)
	dctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	c.group, err = startGroup(dctx, dep, factory, w, func(i int) bpeer.Handler {
		var store backend.StudentStore = backend.NewOperationalDB(records, 0)
		if i%2 == 1 {
			store = backend.NewDataWarehouse(records, 0)
		}
		return c.exec.wrap(appHandler(store))
	})
	cancel()
	if err != nil {
		c.close()
		return nil, fmt.Errorf("deploy group: %w", err)
	}
	c.svc, err = dep.DeployService(serviceDefs(), core.ServiceOptions{ReadObserver: c.reads.observe})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("deploy service: %w", err)
	}
	if w.soap {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("soap listener: %w", err)
		}
		c.srv = &http.Server{Handler: c.serve.wrap(c.svc.Handler()), ReadHeaderTimeout: 10 * time.Second}
		c.srvDone = make(chan struct{})
		go func() {
			defer close(c.srvDone)
			_ = c.srv.Serve(ln)
		}()
		c.httpT = &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
		c.soapc = &soap.Client{
			Endpoint:   "http://" + ln.Addr().String() + "/soap",
			HTTPClient: &http.Client{Transport: c.httpT, Timeout: 30 * time.Second},
		}
	}
	return c, nil
}

// invoke performs one operation through the workload's front end: the
// SOAP client over HTTP, or the service's direct semantic entry point.
// Writes carry their idempotency key.
func (c *cluster) invoke(ctx context.Context, o op) ([]byte, error) {
	if o.write {
		ctx = replog.ContextWithKey(ctx, o.key)
	}
	opName := opRead
	if o.write {
		opName = opWrite
	}
	if c.soapc == nil {
		return c.svc.Invoke(ctx, opName, o.body())
	}
	env, err := c.soapc.CallRaw(ctx, opName, o.body())
	if err != nil {
		return nil, err
	}
	if env.Fault != nil {
		return nil, env.Fault
	}
	return env.BodyXML, nil
}

// close tears the system down and waits for its goroutines.
func (c *cluster) close() {
	if c.srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = c.srv.Shutdown(sctx)
		cancel()
		<-c.srvDone
		c.httpT.CloseIdleConnections()
	}
	if c.group != nil {
		c.group.close()
	}
	if c.dep != nil {
		_ = c.dep.Close()
	}
	if c.net != nil {
		_ = c.net.Close()
	}
}

// coordinatorView reports, for each running replica, the coordinator it
// names. The injector can misreport one replica's view.
func (c *cluster) coordinatorView() map[string]string {
	view := make(map[string]string)
	for _, p := range c.group.running() {
		view[p.Name()] = p.Coordinator()
	}
	if len(view) > 1 && c.exec.inj.active(injectSplitView) {
		for name := range view {
			view[name] = "bogus-coordinator"
			break
		}
	}
	return view
}

// agreed reports the coordinator every running replica names, when they
// agree on one that is itself running and differs from old.
func (c *cluster) agreed(old string) (string, bool) {
	view := c.coordinatorView()
	if len(view) == 0 {
		return "", false
	}
	coord := ""
	for _, v := range view {
		if v == "" || (coord != "" && v != coord) {
			return "", false
		}
		coord = v
	}
	if coord == old {
		return "", false
	}
	for _, p := range c.group.running() {
		if p.Addr() == coord {
			return coord, true
		}
	}
	return "", false
}

// coordinatorName returns the name of the replica at addr.
func (c *cluster) coordinatorName(addr string) (string, error) {
	for _, p := range c.group.all() {
		if p.Addr() == addr {
			return p.Name(), nil
		}
	}
	return "", errors.New("coordinator " + addr + " is not a replica of the group")
}
