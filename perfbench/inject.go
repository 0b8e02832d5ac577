package main

import "sync/atomic"

// injectKind names a deliberate fault the benchmark can plant in its own
// probes, to show that the matching check catches it.
type injectKind int

const (
	injectNone injectKind = iota
	// injectCorruptReply alters one handler reply.
	injectCorruptReply
	// injectDoubleExec executes one payment twice.
	injectDoubleExec
	// injectStaleRead misreports the read index of one follower read.
	injectStaleRead
	// injectSplitView misreports one survivor's coordinator after the
	// first crash.
	injectSplitView
)

// injector plants one fault of its kind. A nil injector plants none.
type injector struct {
	kind  injectKind
	after int64 // fire on the after-th matching event
	n     atomic.Int64
	armed atomic.Bool
}

// fire reports whether this matching event is the one to corrupt.
func (i *injector) fire(k injectKind) bool {
	if i == nil || i.kind != k {
		return false
	}
	return i.n.Add(1) == i.after
}

// arm starts a standing fault of kind k (see active).
func (i *injector) arm(k injectKind) {
	if i != nil && i.kind == k {
		i.armed.Store(true)
	}
}

// disarm ends a standing fault.
func (i *injector) disarm() {
	if i != nil {
		i.armed.Store(false)
	}
}

// active reports whether a standing fault of kind k is armed.
func (i *injector) active(k injectKind) bool {
	return i != nil && i.kind == k && i.armed.Load()
}
