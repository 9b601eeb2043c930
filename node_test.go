package fidr_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"fidr"
	"fidr/internal/metrics"
	"fidr/internal/proto"
)

// The node tests reach fidrd's composition in process: NewNode is what
// the daemon serves, so refusals, lifecycle and the three start-up /
// shutdown bugs are checked here without spawning a binary.

// testNodeConfig is fidrd's defaults on ephemeral loopback ports, with
// small containers and batches so a few hundred chunks seal containers.
func testNodeConfig(t *testing.T) fidr.NodeConfig {
	c := fidr.DefaultNodeConfig()
	c.Addr, c.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	c.ContainerSize, c.Batch = 64<<10, 16
	c.SeriesInterval = 20 * time.Millisecond
	c.Logf = t.Logf
	return c
}

// scraper does not keep connections alive, so a scrape leaves no idle
// client goroutine behind to disturb the leak checks.
var scraper = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

func scrape(t *testing.T, n *fidr.Node, path string) (int, string) {
	t.Helper()
	resp, err := scraper.Get("http://" + n.MetricsAddr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// openFDs counts the process's open descriptors, -1 where /proc is
// absent.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// waitQuiet waits for the goroutine count to come back down to want
// (and, when wantFDs >= 0, the descriptor count with it). Connection
// handlers exit just after their owner's Close returns; the deadline is
// a liveness bound, not a measurement.
func waitQuiet(t *testing.T, what string, want, wantFDs int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g, fds := runtime.NumGoroutine(), openFDs()
		if g <= want && (wantFDs < 0 || fds <= wantFDs) {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines (want %d), %d descriptors (want %d)\n%s",
				what, g, want, fds, wantFDs, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNodeConfigRefusals(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		name string
		set  func(c *fidr.NodeConfig)
		want []string // every flag the error must name
	}{
		{"no groups", func(c *fidr.NodeConfig) { c.Groups = 0 }, []string{"-groups"}},
		{"unknown arch", func(c *fidr.NodeConfig) { c.Arch = "cidr" }, []string{"-arch", "cidr"}},
		{"unknown chunker", func(c *fidr.NodeConfig) { c.Chunker = "rabin" }, []string{"-chunker", "rabin"}},
		{"malformed slo spec", func(c *fidr.NodeConfig) { c.SLOSpec = "write:nope" }, []string{"-slo-spec"}},
		{"no queue", func(c *fidr.NodeConfig) { c.QueueDepth = 0 }, []string{"-queue-depth"}},
		{"data volume alone", func(c *fidr.NodeConfig) { c.DataFile = file("d") }, []string{"-data-file", "-table-file"}},
		{"table volume alone", func(c *fidr.NodeConfig) { c.TableFile = file("t") }, []string{"-data-file", "-table-file"}},
		{"recover without volumes", func(c *fidr.NodeConfig) { c.Recover = true }, []string{"-recover", "-data-file", "-table-file"}},
		{"cdc across groups", func(c *fidr.NodeConfig) { c.Groups, c.Chunker = 2, "cdc" }, []string{"-chunker=cdc", "-groups"}},
		{"volumes across groups", func(c *fidr.NodeConfig) { c.Groups, c.DataFile, c.TableFile = 2, file("d"), file("t") },
			[]string{"-groups", "-data-file", "-table-file"}},
		{"recover across groups", func(c *fidr.NodeConfig) { c.Groups, c.Recover = 2, true }, []string{"-groups", "-recover"}},
		// Each group allocates its whole table cache up front, so 64
		// groups already hold about 1 GiB; at 101 the group<N>. prefix
		// panicked after a hundred servers were built.
		{"more groups than the cross-shard count tracks", func(c *fidr.NodeConfig) { c.Groups = 65 }, []string{"-groups", "64"}},
		{"three-digit group count", func(c *fidr.NodeConfig) { c.Groups = 101 }, []string{"-groups", "64"}},
		// A zero deadline called every worker caught mid-request stalled.
		{"no watchdog deadline", func(c *fidr.NodeConfig) { c.WatchdogDeadline = 0 }, []string{"-watchdog-deadline"}},
		// slo.my obj.burn_fast is a series /metrics can print and nothing
		// can read back.
		{"slo name outside the series alphabet", func(c *fidr.NodeConfig) { c.SLOSpec = "my obj:req.write.ns:2ms:99" },
			[]string{"-slo-spec", "my obj"}},
		{"slo target with trailing bytes", func(c *fidr.NodeConfig) { c.SLOSpec = "w:req.write.ns:2ms:99.9x,w:nosuch.hist:1ms:50" },
			[]string{"-slo-spec", "99.9x"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testNodeConfig(t)
			c.WALFile = file("refused.wal")
			tc.set(&c)
			before, fds := runtime.NumGoroutine(), openFDs()
			defer waitQuiet(t, "after the refusal", before, fds)
			n, err := fidr.NewNode(c)
			if err == nil {
				n.Close()
				t.Fatal("NewNode accepted the configuration")
			}
			for _, flag := range tc.want {
				if !strings.Contains(err.Error(), flag) {
					t.Errorf("error %q does not name %s", err, flag)
				}
			}
		})
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("a refused configuration left %d files behind", len(ents))
	}

	// What must build: a log over in-memory volumes at any group count
	// (at one group this was refused before there was one wiring), and a
	// durable group that resumes after a clean Close.
	for _, groups := range []int{1, 2} {
		c := testNodeConfig(t)
		c.Groups, c.WALFile = groups, file(fmt.Sprintf("mem%d.wal", groups))
		n, err := fidr.NewNode(c)
		if err != nil {
			t.Fatalf("%d group(s) with a WAL and no volumes: %v", groups, err)
		}
		if _, err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	c := testNodeConfig(t)
	c.DataFile, c.TableFile, c.WALFile = file("data.img"), file("table.img"), file("durable.wal")
	const chunks = 40
	content := func(i int) []byte { return fidr.MakeChunk(uint64(i%25), 0.5) }
	n, err := fidr.NewNode(c)
	if err != nil {
		t.Fatal(err)
	}
	cl := dialNode(t, n)
	for i := 0; i < chunks; i++ {
		if err := cl.WriteChunk(uint64(i), content(i)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	if _, err := n.Close(); err != nil {
		t.Fatal(err)
	}
	c.Recover = true
	if n, err = fidr.NewNode(c); err != nil {
		t.Fatalf("recover after a clean close: %v", err)
	}
	cl = dialNode(t, n)
	for i := 0; i < chunks; i++ {
		if got, err := cl.ReadChunk(uint64(i)); err != nil || !bytes.Equal(got, content(i)) {
			t.Fatalf("LBA %d after recovery: err %v", i, err)
		}
	}
	cl.Close()
	if _, err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func dialNode(t *testing.T, n *fidr.Node) *proto.Client {
	t.Helper()
	cl, err := proto.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestNodeLifecycle boots, drives and closes a node twice for one and
// for two groups, each with a WAL file per group. Within a cycle: a wire
// round trip, a traced write that resolves at /traces/spans, readiness,
// a balanced /capacity, and a /metrics name set that has lost nothing
// the golden views pin. Across cycles: the second leaves the goroutine
// and descriptor counts where the first did (the first warms up what
// the runtime opens lazily) — every log, listener and ticker a node
// starts, its Close ends.
func TestNodeLifecycle(t *testing.T) {
	for groups, golden := range map[int]string{
		1: "testdata/metric_names_single.txt",
		2: "testdata/metric_names_cluster2.txt",
	} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			c := testNodeConfig(t)
			c.Groups, c.WALFile = groups, filepath.Join(t.TempDir(), "wal")
			// No collection while counting: a finalizer would close a file
			// or socket the node leaked and hide the leak.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			before, fds := runtime.NumGoroutine(), -1
			for cycle := 0; cycle < 2; cycle++ {
				nodeCycle(t, c, string(want))
				waitQuiet(t, fmt.Sprintf("after cycle %d", cycle), before, fds)
				fds = openFDs()
			}
		})
	}
}

// nodeCycle is one boot -> drive -> check -> close pass of
// TestNodeLifecycle.
func nodeCycle(t *testing.T, c fidr.NodeConfig, goldenNames string) {
	t.Helper()
	n, err := fidr.NewNode(c)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cl := dialNode(t, n)
	defer cl.Close()

	// The golden views' op sequence over the wire: duplicate-heavy
	// writes, overwrites that strand garbage, reads, one GC pass.
	const chunks = 400
	for i := uint64(0); i < chunks; i++ {
		if err := cl.WriteChunk(i, fidr.MakeChunk(i%10, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < chunks; i++ {
		if err := cl.WriteChunk(i, fidr.MakeChunk(1000+i, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	id, err := cl.WriteChunkTraced(chunks, fidr.MakeChunk(7, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if got, err := cl.ReadChunk(i); err != nil || !bytes.Equal(got, fidr.MakeChunk(1000+i, 0.5)) {
			t.Fatalf("read %d: err %v", i, err)
		}
	}
	if _, err := cl.Compact(0); err != nil {
		t.Fatal(err)
	}

	if code, body := scrape(t, n, "/traces/spans?id="+id.String()); code != http.StatusOK ||
		!strings.Contains(body, "proto.write") || !strings.Contains(body, "async.queue") {
		t.Errorf("/traces/spans?id=%s: status %d\n%s", id, code, body)
	}
	if code, body := scrape(t, n, "/readyz"); code != http.StatusOK {
		t.Errorf("/readyz: status %d %q", code, body)
	}
	// The route list is written once, in NewNode; the page it makes is
	// the bytes the daemon served when http.go spelled it three times.
	if index, err := os.ReadFile("testdata/node_index.txt"); err != nil {
		t.Fatal(err)
	} else if _, body := scrape(t, n, "/"); body != string(index) {
		t.Errorf("GET /:\n%s\nwant:\n%s", body, index)
	}
	code, body := scrape(t, n, "/capacity")
	var r fidr.CapacityReport
	if err := json.Unmarshal([]byte(body), &r); code != http.StatusOK || err != nil {
		t.Fatalf("/capacity: status %d, %v", code, err)
	}
	if wantLogical := uint64(2*chunks+1) * fidr.ChunkSize; r.LogicalWriteBytes != wantLogical ||
		r.DedupSavedBytes+r.CompressionSavedBytes+r.StoredBytes+r.UnattributedBytes != wantLogical {
		t.Errorf("/capacity does not balance over %d logical bytes: %+v", wantLogical, r)
	}

	_, text := scrape(t, n, "/metrics")
	served := make(map[string]bool)
	for _, m := range metrics.ParseMetricsText(text) {
		served[m.Kind+" "+m.Name] = true
	}
	for _, line := range strings.Split(strings.TrimSpace(goldenNames), "\n") {
		if !served[line] {
			t.Errorf("/metrics lost %q", line)
		}
	}
	for _, prefix := range []string{"async.", "proto.", "slo.", "runtime.", "health.watchdog_", "events."} {
		if !strings.Contains(text, " "+prefix) {
			t.Errorf("/metrics has no %s* series", prefix)
		}
	}

	cl.Close()
	first, err := n.Close()
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ClientWrites != 2*chunks+1 || first.Stats.ClientReads != 50 {
		t.Errorf("report after close: %+v", first.Stats)
	}
	if again, err := n.Close(); err != nil || again != first {
		t.Errorf("second Close: %+v, %v; want the first report and nil", again, err)
	}
}

// TestNodeBindFailure: an address that cannot be bound fails NewNode —
// for either listener — and the failed start leaves nothing running. The
// daemon used to log the metrics bind error from a goroutine and keep
// serving the protocol port with no /metrics, /readyz or /healthz.
func TestNodeBindFailure(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // as in TestNodeLifecycle
	for flag, set := range map[string]func(c *fidr.NodeConfig){
		"-metrics-addr": func(c *fidr.NodeConfig) { c.MetricsAddr = held.Addr().String() },
		"-addr":         func(c *fidr.NodeConfig) { c.Addr = held.Addr().String() },
	} {
		before, fds := runtime.NumGoroutine(), openFDs()
		c := testNodeConfig(t)
		c.Groups, c.WALFile = 2, filepath.Join(t.TempDir(), "wal")
		set(&c)
		n, err := fidr.NewNode(c)
		if err == nil {
			n.Close()
			t.Fatalf("NewNode bound %s twice", held.Addr())
		}
		if !strings.Contains(err.Error(), flag+":") {
			t.Errorf("bind error %q does not name %s", err, flag)
		}
		waitQuiet(t, "after a failed "+flag, before, fds)
	}
}

// TestNodeCloseWithHalfRequest: a client that connects to the metrics
// address, sends half a request line and goes silent neither holds Close
// up nor outlives it. The endpoint used to be a bare ListenAndServe
// that nothing ever shut down.
func TestNodeCloseWithHalfRequest(t *testing.T) {
	before := runtime.NumGoroutine()
	n, err := fidr.NewNode(testNodeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", n.MetricsAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if _, err := io.WriteString(silent, "GET /metr"); err != nil {
		t.Fatal(err)
	}
	// A full request on a second connection: the server is serving, so
	// the half request has been accepted and is being waited on.
	if code, _ := scrape(t, n, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: status %d", code)
	}
	if _, err := n.Close(); err != nil {
		t.Fatal(err)
	}
	silent.SetReadDeadline(time.Now().Add(10 * time.Second)) // liveness bound only
	if _, err := silent.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("the half-request connection is still open after Close (read: %v)", err)
	}
	waitQuiet(t, "after Close", before, -1)
}
