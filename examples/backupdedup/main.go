// Backupdedup: content-defined chunking over a byte stream — the classic
// backup-deduplication scenario the paper contrasts with its fixed 4-KB
// inline design (§2.1.1: variable chunking is too compute-heavy for
// inline Tbps reduction, but it shines when streams shift by insertion).
//
// The example builds three "nightly backups" of a synthetic file, where
// each night inserts a few bytes near the front. Fixed chunking loses all
// alignment after the insertion; CDC resynchronizes and dedups the tail.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"
	"time"

	"fidr/internal/chunk"
	"fidr/internal/fingerprint"
)

const fileSize = 1 << 20 // 1 MiB synthetic file

func makeBackups() [][]byte {
	base := make([]byte, fileSize)
	rand.New(rand.NewSource(99)).Read(base)
	night2 := append(append([]byte("day2-header!"), base[:5000]...), base[5000:]...)
	night3 := append(append([]byte("dddday3-hdr"), night2[:100]...), night2[100:]...)
	return [][]byte{base, night2, night3}
}

// dedupFixed deduplicates the streams with fixed 4-KB chunks.
func dedupFixed(streams [][]byte) (total, unique int) {
	seen := map[fingerprint.FP]bool{}
	for _, s := range streams {
		for off := 0; off < len(s); off += 4096 {
			end := off + 4096
			if end > len(s) {
				end = len(s)
			}
			total++
			fp := fingerprint.Of(s[off:end])
			if !seen[fp] {
				seen[fp] = true
				unique++
			}
		}
	}
	return
}

// dedupCDC deduplicates with content-defined chunking. Each stream is
// its own extent space, so Split gets a per-stream base offset far
// enough apart that extents never collide.
func dedupCDC(streams [][]byte) (total, unique int) {
	c := chunk.NewCDC(2048, 8192, 32768)
	seen := map[fingerprint.FP]bool{}
	for si, s := range streams {
		for _, ch := range c.Split(uint64(si)<<32, s) {
			total++
			fp := fingerprint.Of(ch.Data)
			if !seen[fp] {
				seen[fp] = true
				unique++
			}
		}
	}
	return
}

// chunkingRate measures single-core chunking throughput in GB/s over
// the backup streams, for the skip-ahead fast path and the retained
// scalar reference it is proven byte-identical to.
func chunkingRate(streams [][]byte) (fastGBs, refGBs float64) {
	c := chunk.NewCDC(2048, 8192, 32768)
	const rounds = 20
	var bytes int64
	var scratch []int
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, s := range streams {
			scratch = c.AppendBoundaries(scratch[:0], s)
			bytes += int64(len(s))
		}
	}
	fastGBs = float64(bytes) / time.Since(start).Seconds() / 1e9
	bytes = 0
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, s := range streams {
			scratch = c.ReferenceBoundaries(scratch[:0], s)
			bytes += int64(len(s))
		}
	}
	refGBs = float64(bytes) / time.Since(start).Seconds() / 1e9
	return
}

func main() {
	backups := makeBackups()
	fmt.Printf("three nightly backups of a %d-KiB file, bytes inserted near the front each night\n\n", fileSize/1024)

	ft, fu := dedupFixed(backups)
	ct, cu := dedupCDC(backups)
	fastGBs, refGBs := chunkingRate(backups)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "chunking\tchunks\tunique\tdedup ratio")
	fmt.Fprintf(w, "fixed 4 KiB\t%d\t%d\t%.1f%%\n", ft, fu, 100*(1-float64(fu)/float64(ft)))
	fmt.Fprintf(w, "content-defined\t%d\t%d\t%.1f%%\n", ct, cu, 100*(1-float64(cu)/float64(ct)))
	w.Flush()

	fmt.Printf("\nchunking throughput (single core): %.2f GB/s fast path, %.2f GB/s scalar reference (%.1fx)\n",
		fastGBs, refGBs, fastGBs/refGBs)
	fmt.Println("\nfixed chunking loses alignment after every insertion (near-zero dedup);")
	fmt.Println("CDC resynchronizes within a few chunks and dedups the unshifted tail.")
	fmt.Println("The paper keeps fixed 4-KB chunks inline (§2.1.1: rolling hashes are too")
	fmt.Println("expensive at Tbps rates); the skip-ahead chunker revisits that trade-off —")
	fmt.Println("`fidrbench cdc` measures it end to end, and `fidrd -chunker cdc` serves it.")
}
