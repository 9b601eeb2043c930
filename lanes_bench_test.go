package fidr_test

import (
	"fmt"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/bufpool"
	"fidr/internal/engine"
	"fidr/internal/nic"
)

// The four Table 3 workloads are measured by benchmark/ (harness outside
// the clock); only the lane-array microbenchmarks live here.

// BenchmarkHashLanes isolates the NIC SHA-core array: buffer a batch
// (arrival hashers hash it as it fills), tip it and join, drain. Scaling
// tracks the host's core count; results are byte-identical at every width.
func BenchmarkHashLanes(b *testing.B) {
	const batch = 64
	sh := blockcomp.NewShaper(0.5)
	chunks := make([][]byte, batch)
	for i := range chunks {
		chunks[i] = sh.Make(uint64(i), 4096)
	}
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lanes=%d", n), func(b *testing.B) {
			fn, err := nic.New(nic.Config{BufferBytes: batch * 4096 * 2})
			if err != nil {
				b.Fatal(err)
			}
			fn.SetHashLanes(n)
			flags := make([]bool, batch)
			for i := range flags {
				flags[i] = true
			}
			b.SetBytes(batch * 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, c := range chunks {
					if err := fn.BufferWrite(uint64(j), c); err != nil {
						b.Fatal(err)
					}
				}
				fn.Tip(false)
				fn.Join()
				unique, err := fn.ScheduleBatch(flags)
				if err != nil {
					b.Fatal(err)
				}
				for _, u := range unique {
					bufpool.Put(u.Data)
				}
			}
		})
	}
}

// BenchmarkCompressLanes isolates the compression-pipeline array over a
// fixed unique batch.
func BenchmarkCompressLanes(b *testing.B) {
	const batch = 64
	sh := blockcomp.NewShaper(0.5)
	datas := make([][]byte, batch)
	for i := range datas {
		datas[i] = sh.Make(uint64(i), 4096)
	}
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lanes=%d", n), func(b *testing.B) {
			e, err := engine.NewCompression(blockcomp.NewLZ(), 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			e.SetCompressLanes(n)
			b.SetBytes(batch * 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.CompressMany(datas); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
