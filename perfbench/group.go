package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/core"
	"whisper/internal/p2p"
	"whisper/internal/qos"
)

// replicaGroup is the benchmark's b-peer group. It starts its replicas
// one at a time, each once the replicas already running agree on a
// coordinator, the way a whisperd fleet is brought up process by
// process. core.DeployGroup starts all replicas back to back instead,
// and about one deployment in a hundred then never becomes ready: the
// lowest-ranked replica keeps the middle one as coordinator after the
// highest one has taken over (see README.md). Starting the replicas
// apart keeps that failure out of every run.
type replicaGroup struct {
	factory core.TransportFactory

	mu    sync.Mutex
	peers []*bpeer.BPeer
}

// startGroup deploys replicas replicas on dep, with handlers made by
// handler, and returns once the group is ready.
func startGroup(ctx context.Context, dep *core.Deployment, factory core.TransportFactory, w workload,
	handler func(i int) bpeer.Handler) (*replicaGroup, error) {
	g := &replicaGroup{factory: factory}
	gid := dep.IDGen().New(p2p.GroupIDKind)
	var readOps []string
	if w.followerReads {
		readOps = []string{opRead}
	}
	for i := 0; i < replicas; i++ {
		name := fmt.Sprintf("students-%d", i)
		tr, err := factory(name)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("transport %s: %w", name, err)
		}
		bp, err := bpeer.New(tr, bpeer.Config{
			Name:              name,
			Rank:              int64(i + 1),
			GroupID:           gid,
			GroupName:         groupName,
			Signature:         studentSignature(),
			QoS:               qos.Profile{LatencyMillis: 5, Reliability: 0.99, Availability: 0.99},
			RendezvousAddr:    dep.RendezvousAddr(),
			Handler:           handler(i),
			IDGen:             dep.IDGen(),
			HeartbeatInterval: timings.HeartbeatInterval,
			HeartbeatTimeout:  timings.HeartbeatTimeout,
			ElectionTimeout:   timings.ElectionTimeout,
			LeaseInterval:     timings.LeaseInterval,
			NoJournal:         !w.journal,
			ReadOnlyOps:       readOps,
			Tracer:            dep.Tracer(),
		})
		if err != nil {
			_ = tr.Close()
			g.close()
			return nil, fmt.Errorf("replica %s: %w", name, err)
		}
		if err := bp.Start(ctx); err != nil {
			_ = bp.Close()
			g.close()
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		g.mu.Lock()
		g.peers = append(g.peers, bp)
		g.mu.Unlock()
		if err := g.waitReady(ctx); err != nil {
			g.close()
			return nil, err
		}
	}
	return g, nil
}

// all returns every replica, crashed ones included.
func (g *replicaGroup) all() []*bpeer.BPeer {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*bpeer.BPeer(nil), g.peers...)
}

// running returns the replicas that are up.
func (g *replicaGroup) running() []*bpeer.BPeer {
	var out []*bpeer.BPeer
	for _, p := range g.all() {
		if p.Running() {
			out = append(out, p)
		}
	}
	return out
}

// coordinator returns the coordinator a running replica names ("" when
// none does).
func (g *replicaGroup) coordinator() string {
	for _, p := range g.running() {
		if c := p.Coordinator(); c != "" {
			return c
		}
	}
	return ""
}

// waitReady blocks until every running replica names the same
// coordinator and that coordinator is running.
func (g *replicaGroup) waitReady(ctx context.Context) error {
	for {
		peers := g.running()
		if len(peers) > 0 {
			coord := peers[0].Coordinator()
			agreed, live := coord != "", false
			for _, p := range peers {
				if p.Coordinator() != coord {
					agreed = false
				}
				if p.Addr() == coord {
					live = true
				}
			}
			if agreed && live {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			views := make(map[string]string)
			for _, p := range peers {
				views[p.Name()] = p.Coordinator()
			}
			return fmt.Errorf("group %s not ready (coordinator views %v): %w", groupName, views, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

func (g *replicaGroup) find(name string) (*bpeer.BPeer, error) {
	for _, p := range g.all() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("no replica %s in group %s", name, groupName)
}

// crash takes the named replica down abruptly.
func (g *replicaGroup) crash(name string) error {
	p, err := g.find(name)
	if err != nil {
		return err
	}
	return p.Crash()
}

// restart brings a crashed replica back on a fresh endpoint.
func (g *replicaGroup) restart(ctx context.Context, name string) error {
	p, err := g.find(name)
	if err != nil {
		return err
	}
	tr, err := g.factory(name)
	if err != nil {
		return fmt.Errorf("transport %s: %w", name, err)
	}
	return p.Restart(ctx, tr)
}

// close shuts every replica down.
func (g *replicaGroup) close() {
	for _, p := range g.all() {
		_ = p.Close()
	}
}
