package fidr_test

import (
	"fmt"
	"log"

	"fidr"
	"fidr/internal/proto"
)

// ExampleNewServer shows the core write-dedup-read loop.
func ExampleNewServer() {
	srv, err := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
	if err != nil {
		log.Fatal(err)
	}
	// 100 chunks, only 10 distinct contents: 90% duplicates.
	for lba := uint64(0); lba < 100; lba++ {
		if err := srv.Write(lba, fidr.MakeChunk(lba%10, 0.5)); err != nil {
			log.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		log.Fatal(err)
	}
	st := srv.Stats()
	fmt.Printf("unique=%d duplicates=%d\n", st.UniqueChunks, st.DuplicateChunks)
	// Output:
	// unique=10 duplicates=90
}

// ExampleNewCluster shards a volume over four device groups.
func ExampleNewCluster() {
	c, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 4)
	if err != nil {
		log.Fatal(err)
	}
	for lba := uint64(0); lba < 40; lba++ {
		if err := c.Write(lba, fidr.MakeChunk(lba, 0.5)); err != nil {
			log.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("groups=%d writes=%d\n", c.Groups(), c.Stats().ClientWrites)
	// Output:
	// groups=4 writes=40
}

// ExampleNewNode boots what fidrd serves — two device groups behind the
// async front-end and the protocol listener — stores chunks over the
// wire, and closes it for the end-of-run report.
func ExampleNewNode() {
	cfg := fidr.DefaultNodeConfig()
	cfg.Addr, cfg.Groups = "127.0.0.1:0", 2
	node, err := fidr.NewNode(cfg)
	if err != nil {
		log.Fatal(err)
	}
	client, err := proto.Dial(node.Addr())
	if err != nil {
		log.Fatal(err)
	}
	for lba := uint64(0); lba < 20; lba++ {
		if err := client.WriteChunk(lba, fidr.MakeChunk(lba%2, 0.5)); err != nil {
			log.Fatal(err)
		}
	}
	client.Close()
	report, err := node.Close()
	if err != nil {
		log.Fatal(err)
	}
	// Two contents, each stored once per group: sharding splits the
	// dedup domain (§5.6).
	fmt.Printf("writes=%d unique=%d\n", report.Stats.ClientWrites, report.Stats.UniqueChunks)
	// Output:
	// writes=20 unique=4
}

// ExampleNewAsync serves concurrent callers over one server, at most
// depth of them admitted at once.
func ExampleNewAsync() {
	srv, err := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
	if err != nil {
		log.Fatal(err)
	}
	a, err := fidr.NewAsync(srv, 32)
	if err != nil {
		log.Fatal(err)
	}
	st, err := fidr.NewAsyncStore(a, fidr.ChunkSize)
	if err != nil {
		log.Fatal(err)
	}
	// A burst of concurrent writers; each runs its write itself.
	errs := make(chan error, 8)
	for lba := uint64(0); lba < 8; lba++ {
		go func() { errs <- st.Write(lba, fidr.MakeChunk(lba, 0.5)) }()
	}
	for range 8 {
		if err := <-errs; err != nil {
			log.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("burst stored")
	// Output:
	// burst stored
}

// ExampleNewWorkload replays a Table 3 workload definition.
func ExampleNewWorkload() {
	gen, err := fidr.NewWorkload(fidr.WriteH(5))
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		_ = req.LBA
		n++
	}
	fmt.Printf("generated %d requests\n", n)
	// Output:
	// generated 5 requests
}
