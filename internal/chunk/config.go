package chunk

import "fmt"

// Mode selects the write-path chunking strategy.
type Mode int

const (
	// ModeFixed is the paper's fixed 4-KB chunking: block storage is
	// write-in-place and the chunker must keep up with Tbps line rate
	// (§2.1.1). Chunks are addressed by chunk index, one per write.
	ModeFixed Mode = iota
	// ModeCDC is content-defined chunking: variable-size chunks cut
	// where the content itself says so, so streams that shift by
	// insertion still dedup. Chunks are addressed by their absolute
	// byte offset in the stream (extent addressing, see Chunk).
	ModeCDC
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeFixed:
		return "fixed"
	case ModeCDC:
		return "cdc"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a -chunker flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "fixed":
		return ModeFixed, nil
	case "cdc":
		return ModeCDC, nil
	default:
		return 0, fmt.Errorf("chunk: unknown chunking mode %q (want fixed or cdc)", s)
	}
}

// Default CDC parameters: 8-KB average chunks in [2 KB, 32 KB]. The max
// stays well under the LBA table's 16-bit compressed-size field even for
// incompressible chunks (token-stream overhead included).
const (
	DefaultCDCMin = 2048
	DefaultCDCAvg = 8192
	DefaultCDCMax = 32768
)

// Config selects the write-path chunker carried by nic.Config and
// core.Config. There is one chunker; the modes differ only in how it is
// sized and how a server addresses its chunks. The zero value is the
// paper's fixed 4-KB chunking.
type Config struct {
	// Mode selects fixed or content-defined chunking.
	Mode Mode
	// Min/Avg/Max bound chunk sizes. Under ModeCDC Avg must be a power
	// of two and all-zero selects the defaults. Under ModeFixed the
	// chunker is the degenerate Min = Avg = Max instance: Max is the
	// chunk size (zero selects DefaultSize; core.Config sets it from
	// ChunkSize) and Min/Avg are overwritten with it, so every cut lands
	// on a multiple of the chunk size.
	Min, Avg, Max int
}

// Normalize fills defaults and validates the configuration.
func (c *Config) Normalize() error {
	switch c.Mode {
	case ModeFixed:
		if c.Max == 0 {
			c.Max = DefaultSize
		}
		c.Min, c.Avg = c.Max, c.Max
	case ModeCDC:
		if c.Min == 0 && c.Avg == 0 && c.Max == 0 {
			c.Min, c.Avg, c.Max = DefaultCDCMin, DefaultCDCAvg, DefaultCDCMax
		}
		if c.Avg&(c.Avg-1) != 0 {
			return fmt.Errorf("chunk: CDC average %d must be a power of two", c.Avg)
		}
	default:
		return fmt.Errorf("chunk: unknown chunking mode %d", int(c.Mode))
	}
	if c.Min <= 0 || c.Avg < c.Min || c.Max < c.Avg {
		return fmt.Errorf("chunk: %s sizes min=%d avg=%d max=%d (want 0 < min <= avg <= max)", c.Mode, c.Min, c.Avg, c.Max)
	}
	return nil
}

// NewChunker builds the chunker the configuration describes.
func (c Config) NewChunker() (*CDC, error) {
	if err := c.Normalize(); err != nil {
		return nil, err
	}
	return NewCDC(c.Min, c.Avg, c.Max), nil
}
