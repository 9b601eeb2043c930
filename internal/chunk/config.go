package chunk

import "fmt"

// Default CDC parameters: 8-KB average chunks in [2 KB, 32 KB]. The max
// stays well under the LBA table's 16-bit compressed-size field even for
// incompressible chunks (token-stream overhead included).
const (
	DefaultCDCMin = 2048
	DefaultCDCAvg = 8192
	DefaultCDCMax = 32768
)

// DefaultCDC is content-defined chunking at the default sizes.
var DefaultCDC = Config{Min: DefaultCDCMin, Avg: DefaultCDCAvg, Max: DefaultCDCMax}

// Config sizes the write-path chunker carried by core.Config: chunks of
// Min to Max bytes, cut where the content says so at an Avg-byte mean
// (Avg a power of two). Min = Avg = Max is the paper's fixed chunking, the
// degenerate instance that never consults the content (Fixed). The zero
// value leaves the size to its user: core reads it as fixed chunking at
// the server's ChunkSize.
type Config struct {
	Min, Avg, Max int
}

// Fixed is fixed-size chunking at size bytes.
func Fixed(size int) Config { return Config{Min: size, Avg: size, Max: size} }

// Unit is the address unit, in bytes, of the chunks cut from one write:
// a chunk's address is the write's plus its byte position divided by the
// unit. When Min = Max every cut lands on a multiple of the chunk size, so
// the unit is the chunk and chunks are addressed by index; otherwise it is
// one byte and chunks are extents addressed by stream offset.
func (c Config) Unit() int {
	if c.Min == c.Max {
		return c.Max
	}
	return 1
}

// Name is the -chunker value of c's kind: "fixed" or "cdc".
func (c Config) Name() string {
	if c.Unit() == 1 {
		return "cdc"
	}
	return "fixed"
}

// Validate reports whether NewCDC accepts c's sizes.
func (c Config) Validate() error {
	if c.Min <= 0 || c.Avg < c.Min || c.Max < c.Avg {
		return fmt.Errorf("chunk: %s sizes min=%d avg=%d max=%d (want 0 < min <= avg <= max)", c.Name(), c.Min, c.Avg, c.Max)
	}
	if c.Min != c.Max && c.Avg&(c.Avg-1) != 0 {
		return fmt.Errorf("chunk: CDC average %d must be a power of two", c.Avg)
	}
	return nil
}

// NewChunker builds the chunker the configuration describes.
func (c Config) NewChunker() (*CDC, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return NewCDC(c.Min, c.Avg, c.Max), nil
}
