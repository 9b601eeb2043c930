// Package chunk splits client write requests into chunks, the unit of
// deduplication and compression in FIDR.
//
// The paper uses fixed 4-KB chunking: variable-size chunking is too
// compute-heavy for inline reduction at Tbps rates, and large (32-KB)
// chunking suffers read-modify-write amplification (§3.1, Figure 3).
// Following SeqCDC/VectorCDC (see PAPERS.md) the package's one chunker
// (cdc.go) is a skip-ahead, word-at-a-time content-defined chunker fast
// enough to make the fixed-vs-CDC trade-off worth measuring live; fixed
// chunking is that chunker configured with Min = Avg = Max (config.go),
// where the content is never consulted. The package also provides the
// read-modify-write analysis used to reproduce Figure 3.
package chunk

// DefaultSize is the paper's chunk size: 4 KiB.
const DefaultSize = 4096

// Chunk is one piece of a client request.
//
// Chunkers use extent addressing: LBA is the chunk's absolute byte
// offset in the client stream, so a chunk is an extent
// [LBA, LBA+len(Data)) and chunks produced by different Split calls over
// distinct stream ranges never collide on the same store. Reading a
// stream back means resolving the extent that *starts* at the requested
// byte offset. (A fixed-mode server feeds its chunker one chunk per
// write and keeps the client's chunk-index address; see Config.)
type Chunk struct {
	// LBA is the chunk's extent address (absolute stream byte offset).
	LBA uint64
	// Data is the chunk payload, between 1 and Max bytes.
	Data []byte
}
