package metrics

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestHandlerIndex: GET / lists Handler's own four routes around the
// caller's, in order, one aligned "path  help" line each. With no routes
// the page is byte for byte what the handler served when the list was
// written out three times (testdata/index_none.txt); fidr's
// TestNodeLifecycle holds a node's full page to the same standard. The
// routes are mounted where the page says, and Handler's doc comment
// shows the same lines.
func TestHandlerIndex(t *testing.T) {
	none := httptest.NewServer(Handler(NewRegistry(), nil, nil))
	defer none.Close()
	want, err := os.ReadFile("testdata/index_none.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := getBody(t, none.URL+"/"); got != string(want) {
		t.Errorf("index without routes:\n%s\nwant:\n%s", got, want)
	}

	src, err := os.ReadFile("http.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n")[1:] {
		if doc := "//\t" + strings.TrimPrefix(line, "  "); !strings.Contains(string(src), doc+"\n") {
			t.Errorf("Handler's doc comment lacks the index line %q", doc)
		}
	}

	two := httptest.NewServer(Handler(NewRegistry(), nil, []Route{
		{Path: "/capacity/containers", Help: "container heatmap", Handler: Text(func() string { return "heat" })},
		{Path: "/slo", Help: "budgets", Handler: Text(func() string { return "slo" })},
	}))
	defer two.Close()
	lines := strings.Split(string(want), "\n")
	lines = append(lines[:3], append([]string{
		"  /capacity/containers  container heatmap",
		"  /slo                  budgets",
	}, lines[3:]...)...)
	if got := getBody(t, two.URL+"/"); got != strings.Join(lines, "\n") {
		t.Errorf("index with two routes:\n%s\nwant:\n%s", got, strings.Join(lines, "\n"))
	}
	if got := getBody(t, two.URL+"/slo"); got != "slo" {
		t.Errorf("/slo served %q", got)
	}
	resp, err := http.Get(two.URL + "/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unlisted path: status %d, want 404", resp.StatusCode)
	}
}
