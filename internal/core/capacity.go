package core

import (
	"sort"

	"fidr/internal/metrics/events"
)

// Capacity observability plane: the reduction-attribution ledger view,
// per-container heatmap, GC recommendation signal, and the structured
// event journal hookup.
//
// Attribution identity (see Stats): every client write byte lands in
// exactly one bucket, so after a Flush
//
//	LogicalWriteBytes = DedupSavedBytes + CompressionSavedBytes + StoredBytes
//
// holds exactly; on a live server the difference is write payload still
// buffered in the batch pipeline (reported as UnattributedBytes).

// SetEventJournal attaches the structured event journal. group labels
// this server's events when several groups share one journal. If the
// server was built by RecoverServer, the recovery event is emitted
// retroactively here — the journal necessarily attaches after
// construction.
func (s *Server) SetEventJournal(j *events.Journal, group int) {
	s.journal = j
	s.group = group
	if s.recovered && j != nil {
		genesis := int64(0)
		if s.recovery.FromGenesis {
			genesis = 1
		}
		s.emitEvent(events.Event{
			Type: events.TypeRecovery,
			Fields: map[string]int64{
				"from_genesis":      genesis,
				"checkpoint_seq":    int64(s.recovery.CheckpointSeq),
				"replayed_records":  int64(s.recovery.ReplayedRecords),
				"stale_fps_dropped": int64(s.recovery.StaleTableEntriesDropped),
				"orphans_cleared":   int64(s.recovery.OrphanedContainersCleared),
				"live_fingerprints": int64(s.fpLive),
			},
		})
	}
}

// emitEvent stamps the server's group onto ev and appends it to the
// journal; a nil journal disables emission.
func (s *Server) emitEvent(ev events.Event) {
	if s.journal == nil {
		return
	}
	ev.Group = s.group
	s.journal.Append(ev)
}

// syncCapacityGauges refreshes the capacity state gauges from the write
// path (batch seal, flush, GC, checkpoint), where reading Server state is
// safe; scrapes see only the resulting atomics.
func (s *Server) syncCapacityGauges() {
	totalDead := s.lba.TotalDeadBytes()
	live := s.ctr.storedBytes.Value()
	if drop := totalDead + s.ctr.reclaimedDead.Value(); drop < live {
		live -= drop
	} else {
		live = 0
	}
	s.ctr.garbage.Set(float64(totalDead))
	s.ctr.live.Set(float64(live))
	s.ctr.fpLive.Set(float64(s.fpLive))
	s.ctr.containers.Set(float64(s.lba.NextContainer()))
	s.ctr.retired.Set(float64(s.lba.RetiredContainers()))
	s.ctr.openBytes.Set(float64(s.comp.OpenBytes()))
}

// GCAdvice is the compaction recommendation derived from the garbage
// ledger: how many containers currently clear the dead-fraction
// threshold and how many bytes a Compact pass at that threshold would
// reclaim.
type GCAdvice struct {
	Threshold             float64 `json:"threshold"`
	CandidateContainers   int     `json:"candidate_containers"`
	ProjectedReclaimBytes uint64  `json:"projected_reclaim_bytes"`
	Recommended           bool    `json:"recommended"`
}

// CapacityReport is the /capacity view: the reduction-attribution
// ledger, garbage debt, fingerprint-table occupancy, and GC advice.
type CapacityReport struct {
	LogicalWriteBytes     uint64 `json:"logical_write_bytes"`
	DedupSavedBytes       uint64 `json:"dedup_saved_bytes"`
	CompressionSavedBytes uint64 `json:"compression_saved_bytes"`
	StoredBytes           uint64 `json:"stored_bytes"`
	// UnattributedBytes is write payload counted in LogicalWriteBytes
	// but still buffered ahead of the batch pipeline — the live-server
	// slack in the attribution identity. Zero after a Flush.
	UnattributedBytes uint64 `json:"unattributed_bytes"`
	// OpenContainerBytes are stored bytes packed into the open
	// container but not yet sealed to the data SSDs.
	OpenContainerBytes uint64  `json:"open_container_bytes"`
	ReductionRatio     float64 `json:"reduction_ratio"`

	GarbageBytes       uint64 `json:"garbage_bytes"`
	LiveBytes          uint64 `json:"live_bytes"`
	ReclaimedDeadBytes uint64 `json:"reclaimed_dead_bytes"`

	FPLive              uint64  `json:"fp_live"`
	FPCapacity          uint64  `json:"fp_capacity"`
	FPOccupancy         float64 `json:"fp_occupancy"`
	DeletedFingerprints uint64  `json:"deleted_fingerprints"`

	Containers        uint64 `json:"containers"`
	RetiredContainers int    `json:"retired_containers"`

	GC GCAdvice `json:"gc"`
}

// CapacityReport builds the capacity view using threshold as the GC
// dead-fraction reference. Must run on the goroutine that owns the
// server (the async front-end runs maintenance ops as its owner): the engine's
// open container and the fingerprint occupancy are single-writer state.
func (s *Server) CapacityReport(threshold float64) CapacityReport {
	s.settleQuietly()
	st := s.Stats()
	r := CapacityReport{
		LogicalWriteBytes:     st.LogicalWriteBytes,
		DedupSavedBytes:       st.DedupSavedBytes,
		CompressionSavedBytes: st.CompressionSavedBytes,
		StoredBytes:           st.StoredBytes,
		OpenContainerBytes:    uint64(s.comp.OpenBytes()),
		ReclaimedDeadBytes:    st.ReclaimedDeadBytes,
		DeletedFingerprints:   st.DeletedFingerprints,
		FPLive:                s.fpLive,
		FPCapacity:            s.cfg.UniqueChunkCapacity,
		Containers:            s.lba.NextContainer(),
		RetiredContainers:     s.lba.RetiredContainers(),
	}
	if attributed := r.DedupSavedBytes + r.CompressionSavedBytes + r.StoredBytes; r.LogicalWriteBytes > attributed {
		r.UnattributedBytes = r.LogicalWriteBytes - attributed
	}
	if denom := r.StoredBytes + r.UnattributedBytes; r.LogicalWriteBytes > 0 && denom > 0 {
		r.ReductionRatio = float64(r.LogicalWriteBytes) / float64(denom)
	}
	if r.FPCapacity > 0 {
		r.FPOccupancy = float64(r.FPLive) / float64(r.FPCapacity)
	}
	r.GarbageBytes = s.lba.TotalDeadBytes()
	if drop := r.GarbageBytes + r.ReclaimedDeadBytes; drop < r.StoredBytes {
		r.LiveBytes = r.StoredBytes - drop
	}
	r.GC = s.gcAdvice(threshold)
	return r
}

// gcAdvice projects what Compact(threshold) would reclaim right now,
// using the same victim rule as Compact: containers whose dead bytes
// exceed threshold * containerSize, excluding the open container.
func (s *Server) gcAdvice(threshold float64) GCAdvice {
	adv := GCAdvice{Threshold: threshold}
	open := s.comp.OpenContainer()
	for c, dead := range s.lba.DeadBytes() {
		if c == open || dead == 0 || float64(dead)/float64(s.cfg.ContainerSize) < threshold {
			continue
		}
		adv.CandidateContainers++
		adv.ProjectedReclaimBytes += dead
	}
	adv.Recommended = adv.CandidateContainers > 0
	return adv
}

// MergeCapacityReports sums per-group reports into a cluster view:
// byte and count fields add, ratios are re-derived from the sums, and
// the GC advice aggregates (recommended when any group recommends).
// Thresholds are uniform across groups, so the first report's is kept.
func MergeCapacityReports(rs ...CapacityReport) CapacityReport {
	var out CapacityReport
	for i, r := range rs {
		if i == 0 {
			out.GC.Threshold = r.GC.Threshold
		}
		out.LogicalWriteBytes += r.LogicalWriteBytes
		out.DedupSavedBytes += r.DedupSavedBytes
		out.CompressionSavedBytes += r.CompressionSavedBytes
		out.StoredBytes += r.StoredBytes
		out.UnattributedBytes += r.UnattributedBytes
		out.OpenContainerBytes += r.OpenContainerBytes
		out.GarbageBytes += r.GarbageBytes
		out.LiveBytes += r.LiveBytes
		out.ReclaimedDeadBytes += r.ReclaimedDeadBytes
		out.FPLive += r.FPLive
		out.FPCapacity += r.FPCapacity
		out.DeletedFingerprints += r.DeletedFingerprints
		out.Containers += r.Containers
		out.RetiredContainers += r.RetiredContainers
		out.GC.CandidateContainers += r.GC.CandidateContainers
		out.GC.ProjectedReclaimBytes += r.GC.ProjectedReclaimBytes
		out.GC.Recommended = out.GC.Recommended || r.GC.Recommended
	}
	if denom := out.StoredBytes + out.UnattributedBytes; out.LogicalWriteBytes > 0 && denom > 0 {
		out.ReductionRatio = float64(out.LogicalWriteBytes) / float64(denom)
	}
	if out.FPCapacity > 0 {
		out.FPOccupancy = float64(out.FPLive) / float64(out.FPCapacity)
	}
	return out
}

// HeatBucket is one cell of the container heatmap: the containers whose
// dead fraction falls in [DeadFracLo, DeadFracHi) within one age band.
type HeatBucket struct {
	// AgeBand partitions containers by allocation order (the system
	// has no per-container wall-clock timestamps): 0 is the oldest
	// third of the frontier, 2 the youngest.
	AgeBand    int     `json:"age_band"`
	DeadFracLo float64 `json:"dead_frac_lo"`
	DeadFracHi float64 `json:"dead_frac_hi"`
	Containers int     `json:"containers"`
	LiveBytes  uint64  `json:"live_bytes"`
	DeadBytes  uint64  `json:"dead_bytes"`
}

// ContainerHeatmap is the /capacity/containers view.
type ContainerHeatmap struct {
	Containers int          `json:"containers"`
	Retired    int          `json:"retired"`
	LiveBytes  uint64       `json:"live_bytes"`
	DeadBytes  uint64       `json:"dead_bytes"`
	Buckets    []HeatBucket `json:"buckets"`
}

// heatAgeBands is the number of allocation-order age bands.
const heatAgeBands = 3

// heatDeadDeciles buckets dead fraction into tenths.
const heatDeadDeciles = 10

// ContainerHeatmap buckets every allocated container by dead fraction
// (deciles of container capacity) and age band (allocation order).
// Retired containers are counted in Retired but excluded from buckets —
// their space is reclaimed, not garbage. Bucket DeadBytes sum to the
// garbage ledger total, the invariant check-capacity asserts.
func (s *Server) ContainerHeatmap() ContainerHeatmap {
	s.settleQuietly()
	usage := s.lba.ContainerUsage()
	hm := ContainerHeatmap{Containers: len(usage)}
	if len(usage) == 0 {
		return hm
	}
	cs := float64(s.lba.ContainerSize())
	buckets := make(map[[2]int]*HeatBucket)
	for _, u := range usage {
		if u.Retired {
			hm.Retired++
			continue
		}
		hm.LiveBytes += u.LiveBytes
		hm.DeadBytes += u.DeadBytes
		band := int(u.Container) * heatAgeBands / len(usage)
		if band >= heatAgeBands {
			band = heatAgeBands - 1
		}
		dec := int(float64(u.DeadBytes) / cs * heatDeadDeciles)
		if dec >= heatDeadDeciles {
			dec = heatDeadDeciles - 1
		}
		key := [2]int{band, dec}
		b := buckets[key]
		if b == nil {
			b = &HeatBucket{
				AgeBand:    band,
				DeadFracLo: float64(dec) / heatDeadDeciles,
				DeadFracHi: float64(dec+1) / heatDeadDeciles,
			}
			buckets[key] = b
		}
		b.Containers++
		b.LiveBytes += u.LiveBytes
		b.DeadBytes += u.DeadBytes
	}
	hm.Buckets = make([]HeatBucket, 0, len(buckets))
	for _, b := range buckets {
		hm.Buckets = append(hm.Buckets, *b)
	}
	sort.Slice(hm.Buckets, func(i, j int) bool {
		if hm.Buckets[i].AgeBand != hm.Buckets[j].AgeBand {
			return hm.Buckets[i].AgeBand < hm.Buckets[j].AgeBand
		}
		return hm.Buckets[i].DeadFracLo < hm.Buckets[j].DeadFracLo
	})
	return hm
}

// MergeHeatmaps combines per-group heatmaps cell-wise (same age band
// and dead-fraction decile merge; counts and bytes add).
func MergeHeatmaps(hs ...ContainerHeatmap) ContainerHeatmap {
	var out ContainerHeatmap
	cells := make(map[[2]int]*HeatBucket)
	for _, h := range hs {
		out.Containers += h.Containers
		out.Retired += h.Retired
		out.LiveBytes += h.LiveBytes
		out.DeadBytes += h.DeadBytes
		for _, b := range h.Buckets {
			key := [2]int{b.AgeBand, int(b.DeadFracLo * heatDeadDeciles)}
			c := cells[key]
			if c == nil {
				cp := b
				cells[key] = &cp
				continue
			}
			c.Containers += b.Containers
			c.LiveBytes += b.LiveBytes
			c.DeadBytes += b.DeadBytes
		}
	}
	out.Buckets = make([]HeatBucket, 0, len(cells))
	for _, c := range cells {
		out.Buckets = append(out.Buckets, *c)
	}
	sort.Slice(out.Buckets, func(i, j int) bool {
		if out.Buckets[i].AgeBand != out.Buckets[j].AgeBand {
			return out.Buckets[i].AgeBand < out.Buckets[j].AgeBand
		}
		return out.Buckets[i].DeadFracLo < out.Buckets[j].DeadFracLo
	})
	return out
}
