package health

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzBundleSnapshots: fidrcli doctor hands BundleSnapshots whatever
// /debug/bundle answered, so no bytes may panic it, and the names it
// returns — with or without an error — are sorted, distinct and not
// empty. Before any of that, the bundle a recorder serves after two
// captures must list exactly the snapshots that recorder retains. The
// seeds are a few entries' worth of the same layout, kept small: the
// fuzzer minimises every input that finds a path, and a byte removed
// from a gzip stream never does.
//
// CI runs this bounded (make fuzz).
func FuzzBundleSnapshots(f *testing.F) {
	rec, err := NewRecorder(RecorderOptions{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	for _, reason := range []string{"async.worker.g0", "slo.write-h"} {
		rec.lastNS.Store(0) // no rate limit between the two
		if _, err := rec.Trigger(reason, "", ""); err != nil {
			f.Fatal(err)
		}
	}
	rw := httptest.NewRecorder()
	rec.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/bundle", nil))
	if got, err := BundleSnapshots(rw.Body.Bytes()); err != nil || len(got) != 2 || !reflect.DeepEqual(got, rec.Snapshots()) {
		f.Fatalf("the recorder retains %q, its bundle lists %q (%v)", rec.Snapshots(), got, err)
	}

	var small bytes.Buffer
	gz := gzip.NewWriter(&small)
	tw := tar.NewWriter(gz)
	for _, name := range []string{"snap-000002-b/meta.json", "./snap-000001-a/meta.json", "snap-000002-b/slow.txt", "loose", "/rooted"} {
		tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: 1})
		tw.Write([]byte("x"))
	}
	tw.Close()
	gz.Close()
	if got, err := BundleSnapshots(small.Bytes()); err != nil || !reflect.DeepEqual(got, []string{"snap-000001-a", "snap-000002-b"}) {
		f.Fatalf("five entries under two snapshots list as %q (%v)", got, err)
	}
	f.Add(small.Bytes())
	f.Add(small.Bytes()[:small.Len()/2])
	f.Add([]byte("not a gzip stream"))
	f.Fuzz(func(t *testing.T, data []byte) {
		names, _ := BundleSnapshots(data)
		for i, name := range names {
			if name == "" || (i > 0 && names[i-1] >= name) {
				t.Fatalf("names not sorted, distinct and non-empty: %q", names)
			}
		}
	})
}
