package ssd

import (
	"errors"
	"fmt"
)

// NVMe-style paired submission/completion queues. The queue pair is a ring
// of fixed depth: commands are submitted to the SQ, executed against the
// device, and completions are reaped from the CQ.
//
// Where the queue pair *lives* is an architectural decision the paper
// leans on: baseline and FIDR keep data-SSD queues in host memory
// (software-managed), while FIDR moves table-SSD queues into the Cache
// HW-Engine so the host CPU never touches the hot random-IO control path
// (§6.1). The Owner tag records that placement so resource accounting can
// charge the right component.

// Owner says which agent manages a queue pair.
type Owner int

const (
	// OwnerHost means host software manages the queue (CPU cost per IO).
	OwnerHost Owner = iota
	// OwnerHW means a hardware engine manages the queue (no host CPU).
	OwnerHW
)

// String implements fmt.Stringer.
func (o Owner) String() string {
	switch o {
	case OwnerHost:
		return "host"
	case OwnerHW:
		return "hw-engine"
	default:
		return fmt.Sprintf("Owner(%d)", int(o))
	}
}

// OpCode is the NVMe command type.
type OpCode int

const (
	// OpRead fills Data from Offset.
	OpRead OpCode = iota
	// OpWrite writes Data at Offset.
	OpWrite
)

// Command is one queued NVMe command. Data is the submitter's buffer in
// both directions, as an NVMe PRP entry names host memory: a write's
// source, a read's destination (its length is the read length).
type Command struct {
	Op     OpCode
	Offset uint64
	Data   []byte
	Tag    uint64 // caller-chosen identifier echoed in the completion
}

// Completion reports a finished command.
type Completion struct {
	Tag  uint64
	Data []byte // a read's filled destination buffer, nil for writes
	Err  error
}

// ErrQueueFull is returned when the submission ring has no free slot.
var ErrQueueFull = errors.New("ssd: submission queue full")

// QueuePair couples an SQ/CQ ring with a device. Not safe for concurrent
// use; each submitter owns its queue pair, as in NVMe.
type QueuePair struct {
	dev   *SSD
	owner Owner
	depth int
	sq    []Command
	cq    []Completion
	// reaped counts the head of cq Reap already handed out; the ring
	// rewinds when empty, so neither queue reallocates in steady state.
	reaped int

	submitted uint64
	completed uint64
}

// NewQueuePair creates a queue pair of the given depth against dev.
func NewQueuePair(dev *SSD, owner Owner, depth int) (*QueuePair, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("ssd: invalid queue depth %d", depth)
	}
	return &QueuePair{dev: dev, owner: owner, depth: depth}, nil
}

// Owner reports who manages this queue pair.
func (q *QueuePair) Owner() Owner { return q.owner }

// Depth returns the ring depth.
func (q *QueuePair) Depth() int { return q.depth }

// Pending returns the number of submitted but unreaped commands.
func (q *QueuePair) Pending() int { return len(q.sq) + len(q.cq) - q.reaped }

// Submit enqueues a command. Returns ErrQueueFull if SQ+CQ occupancy
// reached the ring depth (completions must be reaped to free slots).
func (q *QueuePair) Submit(cmd Command) error {
	if q.Pending() >= q.depth {
		return ErrQueueFull
	}
	q.sq = append(q.sq, cmd)
	q.submitted++
	q.dev.queueDepth.Set(float64(q.Pending()))
	return nil
}

// Process executes all submitted commands against the device, moving them
// to the completion queue. In hardware this is the device's doorbell/DMA
// work; calling it explicitly keeps the simulation deterministic.
func (q *QueuePair) Process() {
	for _, cmd := range q.sq {
		var comp Completion
		comp.Tag = cmd.Tag
		switch cmd.Op {
		case OpRead:
			comp.Data, comp.Err = cmd.Data, q.dev.ReadInto(cmd.Data, cmd.Offset)
		case OpWrite:
			comp.Err = q.dev.Write(cmd.Offset, cmd.Data)
		default:
			comp.Err = fmt.Errorf("ssd: unknown opcode %d", cmd.Op)
		}
		q.cq = append(q.cq, comp)
	}
	q.sq = q.sq[:0]
}

// Reap removes and returns up to max completions (all if max <= 0). The
// result is a view of the completion ring, valid until the next Process.
func (q *QueuePair) Reap(max int) []Completion {
	if n := len(q.cq) - q.reaped; max <= 0 || max > n {
		max = n
	}
	out := q.cq[q.reaped : q.reaped+max]
	if q.reaped += max; q.reaped == len(q.cq) {
		q.cq, q.reaped = q.cq[:0], 0
	}
	q.completed += uint64(max)
	q.dev.queueDepth.Set(float64(q.Pending()))
	return out
}

// Submitted returns the total number of commands ever submitted.
func (q *QueuePair) Submitted() uint64 { return q.submitted }

// Completed returns the total number of completions reaped.
func (q *QueuePair) Completed() uint64 { return q.completed }
