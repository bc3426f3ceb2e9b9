// Package satin is a Go rendition of the Satin divide-and-conquer
// runtime the paper builds on: applications spawn subtasks that are
// load-balanced across nodes with cluster-aware random work stealing
// (CRS), nodes can join and leave a running computation (malleability),
// and work lost to crashes or departures is recomputed from its owner
// (fault tolerance) — the properties the paper's §2 assumes and §4
// implements.
//
// Tasks are plain Go values implementing Task; they and their result
// types must be registered (Register/RegisterValue) because stolen
// jobs and their results travel between nodes in binary control
// frames, encoded by a plan that registration compiles once per type
// over its exported fields.
//
// A typical divide-and-conquer application:
//
//	type Fib struct{ N int }
//
//	func (f Fib) Execute(ctx *satin.Context) (any, error) {
//		if f.N < 2 {
//			return f.N, nil
//		}
//		a := ctx.Spawn(Fib{N: f.N - 1})
//		b := ctx.Spawn(Fib{N: f.N - 2})
//		if err := ctx.Sync(); err != nil {
//			return nil, err
//		}
//		return a.Int() + b.Int(), nil
//	}
package satin

import (
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/transport/wire"
)

// NodeID identifies a runtime node; ClusterID its site.
type (
	NodeID    = core.NodeID
	ClusterID = core.ClusterID
)

// Task is a unit of distributable work. Execute runs on whichever node
// ends up holding the task; it may spawn subtasks through the Context.
// Implementations must be values whose exported fields are bools,
// ints, uints, floats, strings, or slices, arrays and structs of them
// (unexported fields do not travel), registered with Register.
type Task interface {
	Execute(ctx *Context) (any, error)
}

// Register makes a task type transferable between nodes. It panics,
// naming the field, if the type has a field of any other kind.
func Register(t Task) { registerPayload(reflect.TypeOf(t)) }

// RegisterValue makes a result type transferable between nodes, with
// Register's rules; basic types (ints, floats, strings, slices of them)
// work out of the box.
func RegisterValue(v any) { registerPayload(reflect.TypeOf(v)) }

// wire messages of the runtime protocol
type stealMsg struct {
	Thief   NodeID
	Cluster ClusterID
	Seq     uint64
}

type stealReplyMsg struct {
	Seq    uint64
	HasJob bool
	Job    jobMsg
}

// jobMsg is a job on a deque, in an inbox or on the wire. ID is zero
// and fut set while a spawned job has never left its owner: the worker
// that pops it completes fut directly. onSteal gives it an ID the
// moment it leaves, and from then on its result is looked up in the
// owner's pending table. fut never travels. The deque and the inbox
// hold pointers: a spawned job's record is a slot of its parent's frame
// (spawnSlot), which nobody but the spawning worker writes.
type jobMsg struct {
	ID    uint64
	Owner NodeID
	Task  Task
	fut   *Future
}

type resultMsg struct {
	ID    uint64
	Value any
	Err   string
}

type holdingMsg struct {
	ID     uint64
	Holder NodeID
}

// wakeMsg tells a thief that was turned away that its victim has work
// again. It carries nothing: the sender is in the frame's envelope.
type wakeMsg struct{}

func init() {
	wire.Register[stealMsg]("steal")
	wire.Register[stealReplyMsg]("steal-reply")
	wire.Register[resultMsg]("result")
	wire.Register[holdingMsg]("holding")
	wire.Register[wakeMsg]("wake")
	// The statistics report shares its kind with the adapt package's
	// coordinator side; Register is idempotent for identical pairs.
	wire.Register[metrics.Report]("report")
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func stringErr(s string) error {
	if s == "" {
		return nil
	}
	return fmt.Errorf("%s", s)
}
