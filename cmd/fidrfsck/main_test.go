package main

// Table-driven exit-code tests: each case builds a volume state in a
// temp dir, then drives run() directly (no exec) and checks the exit
// code and report text a deployment's scripts would key on.

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"fidr"
	"fidr/internal/chunk"
	"fidr/internal/core"
	"fidr/internal/hashpbn"
	"fidr/internal/ssd"
)

// openVolumes opens file-backed devices exactly the way run() does, so
// volumes built here are readable by the command under test.
func openVolumes(t *testing.T, dir string) (*ssd.SSD, *ssd.SSD) {
	t.Helper()
	dcfg := ssd.Samsung970Pro("data-ssd")
	dcfg.BackingFile = filepath.Join(dir, "vol.data")
	dev, err := ssd.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := ssd.Samsung970Pro("table-ssd")
	tcfg.BackingFile = filepath.Join(dir, "vol.table")
	tcfg.CapacityBytes = 1 << 40
	tdev, err := ssd.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev, tdev
}

// buildVolume writes n unique chunks (seeds base..base+n) through a
// server over the given devices and returns it without checkpointing.
func buildVolume(t *testing.T, dev, tdev *ssd.SSD, w *core.WAL, lbaBase, seedBase, n uint64) *fidr.Server {
	t.Helper()
	cfg := fidr.DefaultConfig(fidr.FIDRFull)
	cfg.DataSSD = dev
	cfg.TableSSD = tdev
	cfg.WAL = w
	srv, err := fidr.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	writeMore(t, srv, lbaBase, seedBase, n)
	return srv
}

func writeMore(t *testing.T, srv *fidr.Server, lbaBase, seedBase, n uint64) {
	t.Helper()
	for i := uint64(0); i < n; i++ {
		if err := srv.Write(lbaBase+i, fidr.MakeChunk(seedBase+i, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
}

// ckpOffset is where the checkpoint region sits for the default config
// (run() always uses DefaultConfig geometry).
func ckpOffset(t *testing.T) uint64 {
	t.Helper()
	geom, err := hashpbn.GeometryFor(fidr.DefaultConfig(fidr.FIDRFull).UniqueChunkCapacity, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return geom.TableBytes()
}

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name     string
		setup    func(t *testing.T, dir string) []string // returns extra args
		wantExit int
		wantText string // substring of combined output
	}{
		{
			name: "consistent volume",
			setup: func(t *testing.T, dir string) []string {
				dev, tdev := openVolumes(t, dir)
				srv := buildVolume(t, dev, tdev, nil, 0, 0, 200)
				if err := srv.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				dev.Close()
				tdev.Close()
				return nil
			},
			wantExit: 0,
			wantText: "volume is consistent",
		},
		{
			name: "no volume",
			setup: func(t *testing.T, dir string) []string {
				dev, tdev := openVolumes(t, dir) // fresh, never written
				dev.Close()
				tdev.Close()
				return nil
			},
			wantExit: 2,
			wantText: "no volume",
		},
		{
			name: "corrupt checkpoint",
			setup: func(t *testing.T, dir string) []string {
				dev, tdev := openVolumes(t, dir)
				srv := buildVolume(t, dev, tdev, nil, 0, 0, 100)
				if err := srv.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// Smash the snapshot body; the magic stays intact.
				if err := tdev.Write(ckpOffset(t)+24, bytes.Repeat([]byte{0xA5}, 512)); err != nil {
					t.Fatal(err)
				}
				dev.Close()
				tdev.Close()
				return nil
			},
			wantExit: 2,
			wantText: "corrupt volume",
		},
		{
			name: "corrupted data container",
			setup: func(t *testing.T, dir string) []string {
				dev, tdev := openVolumes(t, dir)
				srv := buildVolume(t, dev, tdev, nil, 0, 0, 300)
				if err := srv.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// Flip a stored container's bytes: re-hashing must flag it.
				if err := dev.Write(4096, bytes.Repeat([]byte{0xFF}, 4096)); err != nil {
					t.Fatal(err)
				}
				dev.Close()
				tdev.Close()
				return nil
			},
			wantExit: 1,
			wantText: "PROBLEM",
		},
		{
			name: "orphaned container",
			setup: func(t *testing.T, dir string) []string {
				dev, tdev := openVolumes(t, dir)
				srv := buildVolume(t, dev, tdev, nil, 0, 0, 200)
				if err := srv.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// Post-checkpoint writes reach the data SSD but never a
				// checkpoint: data beyond the recovered frontier.
				writeMore(t, srv, 5000, 50_000, 600)
				dev.Close()
				tdev.Close()
				return nil
			},
			wantExit: 1,
			wantText: "orphaned data",
		},
		{
			name: "stale table entries",
			setup: func(t *testing.T, dir string) []string {
				dev, tdev := openVolumes(t, dir)
				srv := buildVolume(t, dev, tdev, nil, 0, 0, 200)
				if err := srv.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// Enough post-checkpoint uniques to evict dirty bucket
				// cache lines: the durable table then indexes chunks the
				// checkpoint never heard of.
				writeMore(t, srv, 10_000, 100_000, 6000)
				dev.Close()
				tdev.Close()
				return nil
			},
			wantExit: 1,
			wantText: "stale Hash-PBN entry",
		},
		{
			name: "wal replay restores consistency",
			setup: func(t *testing.T, dir string) []string {
				walPath := filepath.Join(dir, "vol.wal")
				w, err := core.OpenWALFile(walPath)
				if err != nil {
					t.Fatal(err)
				}
				dev, tdev := openVolumes(t, dir)
				srv := buildVolume(t, dev, tdev, w, 0, 0, 200)
				if err := srv.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// The same post-checkpoint writes that are damage without
				// a WAL are recoverable with one.
				writeMore(t, srv, 5000, 50_000, 600)
				dev.Close()
				tdev.Close()
				w.Close()
				return []string{"-wal-file", walPath}
			},
			wantExit: 0,
			wantText: "volume is consistent",
		},
		{
			// A content-defined-chunking volume needs no flag of its own:
			// every chunk's record says how long it is, in the checkpoint
			// and in the log replayed over it.
			name: "cdc volume",
			setup: func(t *testing.T, dir string) []string {
				walPath := filepath.Join(dir, "vol.wal")
				w, err := core.OpenWALFile(walPath)
				if err != nil {
					t.Fatal(err)
				}
				dev, tdev := openVolumes(t, dir)
				cfg := fidr.DefaultConfig(fidr.FIDRFull)
				cfg.DataSSD, cfg.TableSSD, cfg.WAL = dev, tdev, w
				cfg.Chunking = chunk.Config{Mode: chunk.ModeCDC}
				srv, err := fidr.NewServer(cfg)
				if err != nil {
					t.Fatal(err)
				}
				segment := func(gen uint64) []byte { // 40 blocks, ~160 KB, ragged
					var seg []byte
					for i := uint64(0); i < 40; i++ {
						seg = append(seg, fidr.MakeChunk(gen*25+i, 0.5)...)
					}
					return seg[:len(seg)-777]
				}
				for gen := uint64(0); gen < 4; gen++ {
					if err := srv.Write(gen<<32, segment(gen)); err != nil {
						t.Fatal(err)
					}
				}
				if err := srv.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				for gen := uint64(4); gen < 12; gen++ { // lives only in the log
					if err := srv.Write(gen<<32, segment(gen)); err != nil {
						t.Fatal(err)
					}
				}
				if err := srv.Flush(); err != nil {
					t.Fatal(err)
				}
				dev.Close()
				tdev.Close()
				w.Close()
				return []string{"-wal-file", walPath}
			},
			wantExit: 0,
			wantText: "volume is consistent",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			extra := tc.setup(t, dir)
			args := append([]string{
				"-data-file", filepath.Join(dir, "vol.data"),
				"-table-file", filepath.Join(dir, "vol.table"),
			}, extra...)
			var stdout, stderr strings.Builder
			code := run(args, &stdout, &stderr)
			out := stdout.String() + stderr.String()
			if code != tc.wantExit {
				t.Fatalf("exit %d, want %d; output:\n%s", code, tc.wantExit, out)
			}
			if !strings.Contains(out, tc.wantText) {
				t.Fatalf("output missing %q:\n%s", tc.wantText, out)
			}
		})
	}
}

func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("missing flags: exit %d, want 2", code)
	}
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}
