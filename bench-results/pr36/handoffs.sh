#!/usr/bin/env bash
# Hand-off counts per 64-chunk batch from runtime/trace, for two checkouts
# of this repository (the parent and the change):
#
#   bash handoffs.sh <parent-checkout> <change-checkout> [batches]
#
# For each side and each lanes2 row of BenchmarkWriteBatch it runs
#   go test -run '^$' -bench '^BenchmarkWriteBatch$/^<row>$/^lanes2$' \
#       -benchtime <batches>x -trace <file>
# reads the trace with `go tool trace -d=parsed` and prints, per batch
# written: goroutines created, the µs the caller (the goroutine that ran
# longest) spent Runnable, and the share of P time spent idle. Batches
# counts every batch the benchmark function wrote, untimed set-up batches
# and the one-iteration probe run included. The row list is the change's;
# copy its internal/core/alloc_test.go into the parent checkout first if
# the parent lacks a row.
set -euo pipefail
parent=$1 change=$2 n=${3:-2000}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Batches one `-benchtime Nx` invocation writes: the probe run (1 batch)
# and the measured run (N), each with 2 set-up batches per 256.
batches=$(( 1 + 2 + n + 2 * ((n + 255) / 256) ))
printf '%-8s %-18s %10s %12s %14s %10s\n' side row batches 'go/batch' 'runnable_us' 'P_idle'
for side in parent change; do
	dir=$parent
	[ "$side" = change ] && dir=$change
	for row in unique-heavy duplicate read-interleaved; do
		(cd "$dir" && go test -run '^$' -bench "^BenchmarkWriteBatch\$/^$row\$/^lanes2\$" \
			-benchtime "${n}x" -trace "$tmp/t.out" ./internal/core >/dev/null)
		go tool trace -d=parsed "$tmp/t.out" | awk -v side="$side" -v row="$row" -v b="$batches" '
		/^M=/ && / StateTransition / {
			t = 0; for (i = 1; i <= NF; i++) if ($i ~ /^Time=/) { t = substr($i, 6) + 0 }
			if (first == 0) first = t
			last = t
			split($NF, st, "->")
			if ($0 ~ /Resource=Goroutine\(/) {
				match($0, /GoID=[0-9]+/); g = substr($0, RSTART + 5, RLENGTH - 5)
				if (st[1] == "NotExist" && st[2] == "Runnable") created++
				if (st[1] == "Running") run[g] += t - rs[g]
				if (st[2] == "Running") rs[g] = t
				if (st[1] == "Runnable" && (g in qs)) queued[g] += t - qs[g]
				if (st[2] == "Runnable") qs[g] = t
			} else if ($0 ~ /Resource=Proc\(/) {
				match($0, /ProcID=[0-9]+/); p = substr($0, RSTART + 7, RLENGTH - 7)
				procs[p] = 1
				if (st[1] == "Idle" && (p in is)) { idle += t - is[p]; delete is[p] }
				if (st[2] == "Idle") is[p] = t
			}
		}
		END {
			for (p in is) idle += last - is[p]
			np = 0; for (p in procs) np++
			caller = ""; for (g in run) if (caller == "" || run[g] > run[caller]) caller = g
			printf "%-8s %-18s %10d %12.2f %14.2f %9.1f%%\n", side, row, b,
				created / b, queued[caller] / 1e3 / b, 100 * idle / ((last - first) * np)
		}'
	done
done
