package fidr_test

import (
	"bytes"
	"testing"

	"fidr"
)

func TestClusterValidation(t *testing.T) {
	if _, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 0); err == nil {
		t.Fatal("zero groups accepted")
	}
	// Every group allocates its whole table cache up front.
	if _, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 65); err == nil {
		t.Fatal("65 groups accepted: 64 table caches already hold about 1 GiB")
	}
}

func TestClusterRoundTripAndSharding(t *testing.T) {
	c, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Groups() != 4 {
		t.Fatalf("groups = %d", c.Groups())
	}
	const n = 800
	for i := uint64(0); i < n; i++ {
		if err := c.Write(i, fidr.MakeChunk(i%100, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		got, err := c.Read(i)
		if err != nil || !bytes.Equal(got, fidr.MakeChunk(i%100, 0.5)) {
			t.Fatalf("cluster read %d failed: %v", i, err)
		}
	}
	// Shard balance: every group should see a fair slice of writes.
	for g := 0; g < c.Groups(); g++ {
		w := c.Group(g).Stats().ClientWrites
		if w < n/8 || w > n/2 {
			t.Errorf("group %d handled %d of %d writes; sharding skewed", g, w, n)
		}
	}
	agg := c.Stats()
	if agg.ClientWrites != n {
		t.Fatalf("aggregate writes = %d", agg.ClientWrites)
	}
	if agg.UniqueChunks+agg.DuplicateChunks != n {
		t.Fatal("aggregate chunk accounting broken")
	}
}

func TestClusterDedupDomainSplit(t *testing.T) {
	// The documented trade-off: content duplicated across shards is
	// stored once per shard, so a 4-group cluster stores up to 4 copies
	// of globally duplicated content while a single server stores 1.
	single, err := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 4)
	if err != nil {
		t.Fatal(err)
	}
	// 400 LBAs, only 10 distinct contents.
	for i := uint64(0); i < 400; i++ {
		chunk := fidr.MakeChunk(i%10, 0.5)
		if err := single.Write(i, chunk); err != nil {
			t.Fatal(err)
		}
		if err := cluster.Write(i, chunk); err != nil {
			t.Fatal(err)
		}
	}
	single.Flush()
	cluster.Flush()
	su := single.Stats().UniqueChunks
	cu := cluster.Stats().UniqueChunks
	if su != 10 {
		t.Fatalf("single server stored %d uniques, want 10", su)
	}
	if cu <= su || cu > 40 {
		t.Fatalf("cluster stored %d uniques; expected (10, 40]", cu)
	}
}

func TestClusterSnapshotAggregates(t *testing.T) {
	c, _ := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 2)
	for i := uint64(0); i < 200; i++ {
		c.Write(i, fidr.MakeChunk(i, 0.5))
	}
	c.Flush()
	snap := c.Snapshot()
	if snap.ClientBytes != 200*fidr.ChunkSize {
		t.Fatalf("aggregate client bytes = %d", snap.ClientBytes)
	}
	if snap.MemPerClientByte() <= 0 {
		t.Fatal("aggregate intensities empty")
	}
}
