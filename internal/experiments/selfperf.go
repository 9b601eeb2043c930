package experiments

import (
	"time"

	"fidr/internal/blockcomp"
	"fidr/internal/fingerprint"
	"fidr/internal/hashpbn"
	"fidr/internal/hwtree"
	"fidr/internal/metrics"
	"fidr/internal/nic"
)

// SelfPerf measures *this machine's* software throughput for the
// operations FIDR offloads — SHA-256 hashing, block compression, bucket
// scanning, tree indexing — and frames each against the paper's targets
// (8 GB/s per NIC, 75 GB/s per socket). It is the empirical backbone of
// the paper's premise: "completely relying on the CPUs for the data
// reduction is not scalable" [2,5,9,16]. Unlike every other experiment,
// the numbers here depend on the host running the benchmark.
type SelfPerfRow struct {
	Operation string
	// BytesPerSec is the measured single-goroutine software rate.
	BytesPerSec float64
	// CoresAt75 is the cores needed to sustain 75 GB/s in software.
	CoresAt75 float64
}

// SelfPerf runs the measurements (a few hundred ms each).
func SelfPerf() ([]SelfPerfRow, *metrics.Table, error) {
	sh := blockcomp.NewShaper(0.5)
	chunk := sh.Make(1, 4096)

	measure := func(name string, per func() int) SelfPerfRow {
		const budget = 200 * time.Millisecond
		start := time.Now()
		var bytes int
		for time.Since(start) < budget {
			bytes += per()
		}
		elapsed := time.Since(start).Seconds()
		rate := float64(bytes) / elapsed
		return SelfPerfRow{
			Operation:   name,
			BytesPerSec: rate,
			CoresAt75:   75e9 / rate,
		}
	}

	var rows []SelfPerfRow
	rows = append(rows, measure("SHA-256 fingerprint (4-KB chunk)", func() int {
		fingerprint.Of(chunk)
		return len(chunk)
	}))
	lz := blockcomp.NewLZ()
	rows = append(rows, measure("LZ compression (4-KB chunk)", func() int {
		if _, err := lz.Compress(chunk); err != nil {
			return 0
		}
		return len(chunk)
	}))
	cdata, _ := lz.Compress(chunk)
	rows = append(rows, measure("LZ decompression (4-KB chunk)", func() int {
		if _, err := lz.Decompress(cdata, len(chunk)); err != nil {
			return 0
		}
		return len(chunk)
	}))
	// Bucket scan: one full bucket per 4-KB chunk of reduction.
	bucket := hashpbn.NewBucket()
	for i := 0; i < hashpbn.EntriesPerBucket; i++ {
		bucket.Insert(fingerprint.Of([]byte{byte(i), byte(i >> 8)}), uint64(i))
	}
	probe := fingerprint.Of([]byte("absent"))
	rows = append(rows, measure("bucket scan (per 4-KB chunk)", func() int {
		bucket.Lookup(probe)
		return 4096
	}))
	// Software tree index — the engine's own tree, run on this CPU: one
	// lookup per 4-KB chunk.
	tr := hwtree.NewTree()
	for i := uint64(0); i < 1<<18; i++ {
		tr.Put(i*2654435761%(1<<30), i)
	}
	var key uint64
	rows = append(rows, measure("B+-tree lookup (per 4-KB chunk)", func() int {
		key = key*6364136223846793005 + 1442695040888963407
		tr.Get(key % (1 << 30))
		return 4096
	}))

	tab := metrics.NewTable("Self-measurement: software rates of offloaded operations (this host)",
		"operation", "software rate", "cores for 75 GB/s", "offload target")
	targets := map[string]string{
		rows[0].Operation: "16 SHA cores per NIC (Table 4)",
		rows[1].Operation: "Compression Engine FPGA",
		rows[2].Operation: "Decompression Engine FPGA",
		rows[3].Operation: "stays on host (6.3% CPU, Table 2)",
		rows[4].Operation: "Cache HW-Engine tree (Fig 13)",
	}
	for _, r := range rows {
		tab.Row(r.Operation, metrics.GBps(r.BytesPerSec),
			metrics.FormatFloat(r.CoresAt75), targets[r.Operation])
	}
	tab.Note("one goroutine each; the NIC line rate is %.0f GB/s and the socket target 75 GB/s", nic.LineRateBytes/1e9)
	return rows, tab, nil
}
