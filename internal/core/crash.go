package core

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Deterministic crash injection (extension). The crash-recovery harness
// needs to kill the pipeline at named stages — after hashing, before
// packing, between a container's data-SSD write and its WAL commit, and
// inside Checkpoint — at a seed-chosen occurrence. ArmCrash plants the
// bomb; when the armed stage's N-th hit fires, the server returns
// ErrCrashInjected and permanently refuses further work, exactly like a
// dead process: nothing (not even a front-end's shutdown Flush) can
// mutate state after the crash point.

// CrashStage names a pipeline point where injection can fire.
type CrashStage int

const (
	// CrashPostHash fires after batch fingerprinting, before the batch's
	// dedup lookups: its chunk data is buffered, none of its metadata was
	// touched. On FIDR the previous batch's commit may have run under this
	// hash (tipFIDRBatch), so the crash comes after that commit; the hit
	// count is still one per tipped batch.
	CrashPostHash CrashStage = iota
	// CrashPrePack fires after compression, before packing/table
	// updates: the most work lost without any mutation applied.
	CrashPrePack
	// CrashMidContainerFlush fires between a sealed container's data-SSD
	// write and the WAL commit that makes its metadata durable — the
	// window that leaves an orphaned container on the data SSD.
	CrashMidContainerFlush
	// CrashMidCheckpoint fires inside Checkpoint: on the first hit
	// before the checkpoint image is written (stale checkpoint + full
	// WAL survive), on the second after it is written but before the
	// WAL truncates (new checkpoint + stale WAL — replay must skip
	// already-checkpointed records).
	CrashMidCheckpoint
)

// String implements fmt.Stringer.
func (c CrashStage) String() string {
	switch c {
	case CrashPostHash:
		return "post-hash"
	case CrashPrePack:
		return "pre-pack"
	case CrashMidContainerFlush:
		return "mid-container-flush"
	case CrashMidCheckpoint:
		return "mid-checkpoint"
	default:
		return fmt.Sprintf("CrashStage(%d)", int(c))
	}
}

// ErrCrashInjected is returned by every operation at and after an
// injected crash.
var ErrCrashInjected = errors.New("core: injected crash")

// crashState lives on the Server. countdown is only touched by the
// owning goroutine; crashed is atomic so harness goroutines can poll
// Crashed() while the owner runs.
type crashState struct {
	stage     CrashStage
	countdown int
	armed     bool
	crashed   atomic.Bool
}

// ArmCrash plants a crash at the hitNo-th occurrence (1-based) of stage.
// Call before submitting traffic; only one crash can be armed.
func (s *Server) ArmCrash(stage CrashStage, hitNo int) {
	if hitNo < 1 {
		hitNo = 1
	}
	s.crash.stage = stage
	s.crash.countdown = hitNo
	s.crash.armed = true
}

// Crashed reports whether an injected crash has fired. Safe to call from
// any goroutine.
func (s *Server) Crashed() bool { return s.crash.crashed.Load() }

// crashPoint fires the armed crash if this is its chosen occurrence.
func (s *Server) crashPoint(stage CrashStage) error {
	if s.crash.crashed.Load() {
		return fmt.Errorf("core: server is down at %s: %w", stage, ErrCrashInjected)
	}
	if !s.crash.armed || s.crash.stage != stage {
		return nil
	}
	s.crash.countdown--
	if s.crash.countdown > 0 {
		return nil
	}
	s.crash.crashed.Store(true)
	return fmt.Errorf("core: crash at %s: %w", stage, ErrCrashInjected)
}

// failIfCrashed guards entry points: a crashed server is a dead process.
func (s *Server) failIfCrashed() error {
	if s.crash.crashed.Load() {
		return fmt.Errorf("core: server is down: %w", ErrCrashInjected)
	}
	return nil
}
