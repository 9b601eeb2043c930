package core

// ShardOf is §5.6's scale-out routing: the device group, out of groups,
// that owns an LBA. A splitmix-style mix keeps shard load uniform even
// for sequential LBA ranges.
func ShardOf(lba uint64, groups int) int {
	z := lba + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int((z ^ (z >> 31)) % uint64(groups))
}
