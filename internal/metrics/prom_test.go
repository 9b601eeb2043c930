package metrics

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promSample matches "name 1.5" and "name{le=\"2\"} 7".
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (\S+)$`)

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"core.writes":         "core_writes",
		"group0.core.writes":  "group0_core_writes",
		"stage.hash.ns":       "stage_hash_ns",
		"ssd.data-ssd.reads":  "ssd_data_ssd_reads",
		"0weird":              "_0weird",
		"already_fine_name":   "already_fine_name",
		"cluster.write_share": "cluster_write_share",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.writes").Add(640)
	r.Gauge("core.ratio").Set(0.413)
	h := r.Histogram("stage.hash.ns")
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i * 17))
	}
	out := DumpProm(r.Snapshot())
	types := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("non-numeric sample in %q: %v", line, err)
		}
	}
	for name, kind := range map[string]string{
		"core_writes":   "counter",
		"core_ratio":    "gauge",
		"stage_hash_ns": "histogram",
	} {
		if types[name] != kind {
			t.Errorf("TYPE %s = %q, want %q", name, types[name], kind)
		}
	}
}

func TestPromHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stage.hash.ns")
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		v := float64((i * i) % 100000)
		h.Observe(v)
		sum += v
	}
	out := DumpProm(r.Snapshot())

	var bucketCounts []uint64
	var lastLE float64
	var infCount, count uint64
	var gotSum float64
	var sawInf bool
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "stage_hash_ns_bucket{le=\"+Inf\"}"):
			sawInf = true
			infCount, _ = strconv.ParseUint(strings.Fields(line)[1], 10, 64)
		case strings.HasPrefix(line, "stage_hash_ns_bucket{"):
			m := promSample.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("bad bucket line %q", line)
			}
			le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(m[2], `{le="`), `"}`), 64)
			if err != nil {
				t.Fatalf("bad le in %q: %v", line, err)
			}
			if len(bucketCounts) > 0 && le <= lastLE {
				t.Fatalf("bucket upper bounds not increasing: %v after %v", le, lastLE)
			}
			lastLE = le
			c, _ := strconv.ParseUint(m[3], 10, 64)
			bucketCounts = append(bucketCounts, c)
		case strings.HasPrefix(line, "stage_hash_ns_sum "):
			gotSum, _ = strconv.ParseFloat(strings.Fields(line)[1], 64)
		case strings.HasPrefix(line, "stage_hash_ns_count "):
			count, _ = strconv.ParseUint(strings.Fields(line)[1], 10, 64)
		}
	}
	if !sawInf {
		t.Fatal("no +Inf bucket emitted")
	}
	if len(bucketCounts) == 0 {
		t.Fatal("no finite buckets emitted")
	}
	for i := 1; i < len(bucketCounts); i++ {
		if bucketCounts[i] < bucketCounts[i-1] {
			t.Fatalf("bucket counts not cumulative/monotone at %d: %v", i, bucketCounts)
		}
	}
	if last := bucketCounts[len(bucketCounts)-1]; last != infCount {
		t.Errorf("last finite bucket %d != +Inf bucket %d", last, infCount)
	}
	if infCount != count {
		t.Errorf("+Inf bucket %d != _count %d", infCount, count)
	}
	if count != n {
		t.Errorf("_count = %d, want %d", count, n)
	}
	if gotSum != sum {
		t.Errorf("_sum = %v, want %v", gotSum, sum)
	}
}

func TestPromEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("stage.idle.ns")
	out := DumpProm(r.Snapshot())
	for _, want := range []string{
		"stage_idle_ns_bucket{le=\"+Inf\"} 0",
		"stage_idle_ns_sum 0",
		"stage_idle_ns_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("empty-histogram exposition missing %q:\n%s", want, out)
		}
	}
}
