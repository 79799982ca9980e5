#!/bin/sh
# Tier-1 smoke check: build, tests, formatting (when ocamlformat is
# available), and one tiny instrumented solve whose JSONL flight
# recording and JSON report are validated.  Malformed or extreme inputs
# (oversized coefficients and variable indices, a strengthening surplus
# beyond the coefficient limit) must be answered, not crash.  Also
# exercises the live-observability surface: a
# --trace-spans/--heartbeat/--metrics portfolio solve whose artifacts
# are validated with `bsolo inspect --spans` / `--live --check`, a
# --listen run whose endpoints, heartbeat and metrics files all come
# from one monitor, a --metrics-only run that must refresh its file and
# leave it lint-clean after SIGTERM, and a --portfolio --jobs 2 run
# whose report must carry the members' summed phase times (a non-zero
# `propagate`).
# The flight recorder is exercised end to end: a --record run replayed
# deterministically with `bsolo replay --check`, its forensics node
# accounting reconciled, a direct --record run killed with SIGTERM
# before its fin (replays, but `replay --check` calls it incomplete), a
# foreign file refused with exit 2, a --record-ring run killed with
# SIGTERM whose tail must still parse, and stitched --portfolio
# recordings (--jobs 2
# and --jobs 1, whose forensics accounting must reconcile); pbs and
# galena recordings replay and reconcile the same way, and so do runs
# under non-default search flags.
# Exits non-zero on the first failure.
#
# With --proof, each smoke instance is additionally solved under
# certified proof logging and the log replayed through `bsolo
# checkproof` (including an --engine pbs proof and --portfolio --jobs 2
# and --jobs 1 stitched proofs, which must hold no i step, and a
# generated knap --scale 1.5 proof
# with thousands of RUP steps, checked under a 60 s timeout); at least
# one run must carry certified LPR bound-conflict steps.
#
# When SMOKE_ARTIFACTS_DIR is set, the run's artifacts (span/heartbeat/
# metrics files, reports, proofs) are copied there on exit for CI upload.
set -eu

cd "$(dirname "$0")/.."

with_proof=0
for arg in "$@"; do
  case "$arg" in
    --proof) with_proof=1 ;;
    *) echo "usage: smoke.sh [--proof]"; exit 2 ;;
  esac
done

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== dune build @fmt =="
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "ocamlformat not installed; skipping formatting check"
fi

echo "== instrumented solve =="
tmpdir=$(mktemp -d)
save_artifacts() {
  if [ -n "${SMOKE_ARTIFACTS_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACTS_DIR"
    for f in "$tmpdir"/*.json "$tmpdir"/*.jsonl "$tmpdir"/*.prom "$tmpdir"/*.pbp \
             "$tmpdir"/*.check "$tmpdir"/*.rec; do
      [ -e "$f" ] && cp "$f" "$SMOKE_ARTIFACTS_DIR/" || true
    done
  fi
}
trap 'save_artifacts; rm -rf "$tmpdir"' EXIT
./_build/default/bin/bsolo_main.exe benchmarks/synth-s1.opb \
  --timeout 10 --stats --json "$tmpdir/report.json" \
  --record "$tmpdir/synth.rec" \
  >"$tmpdir/stdout.txt" 2>"$tmpdir/stderr.txt"

grep -q '^s OPTIMUM FOUND$' "$tmpdir/stdout.txt" || {
  echo "FAIL: expected 's OPTIMUM FOUND' on stdout"; cat "$tmpdir/stdout.txt"; exit 1;
}
grep -q '^c phase times' "$tmpdir/stderr.txt" || {
  echo "FAIL: --stats produced no phase table on stderr"; cat "$tmpdir/stderr.txt"; exit 1;
}

echo "== validate the JSONL recording =="
# The recording is JSON lines: a bsolo-trace/2 header, then one line per
# recorded event.  Every search node is a decision or a prune, so their
# lines add up to the fin event's node count — the identity `inspect
# forensics` checks too.
[ -s "$tmpdir/synth.rec" ] || { echo "FAIL: empty recording"; exit 1; }
awk '
  !/^\{"t":/ { print "FAIL: bad recording line " NR ": " $0; bad = 1; exit 1 }
  !/\}$/     { print "FAIL: bad recording line " NR ": " $0; bad = 1; exit 1 }
  NR == 1 && !/"ev":"header","schema":"bsolo-trace\/2"/ {
    print "FAIL: first line is not a bsolo-trace/2 header: " $0; bad = 1; exit 1
  }
  /"ev":"decision"/ { nodes++ }
  /"ev":"prune"/ { nodes++ }
  /"ev":"fin"/ {
    if (match($0, /"nodes":[0-9]+/)) fin = substr($0, RSTART + 8, RLENGTH - 8) + 0
  }
  /"ev":"incumbent"/ {
    if (match($0, /"cost":-?[0-9]+/)) {
      cost = substr($0, RSTART + 7, RLENGTH - 7) + 0
      if (seen && cost >= prev) { print "FAIL: incumbent trajectory not decreasing at line " NR; bad = 1; exit 1 }
      prev = cost; seen = 1
    }
  }
  END {
    if (bad) exit 1
    if (fin == "" || nodes != fin) { print "FAIL: decisions + prunes = " nodes ", fin.nodes = " fin; exit 1 }
    print "recording: " NR " lines, incumbents strictly decreasing, decisions + prunes = fin.nodes = " fin
  }
' "$tmpdir/synth.rec"
./_build/default/bin/bsolo_main.exe replay benchmarks/synth-s1.opb "$tmpdir/synth.rec" --check \
  >"$tmpdir/synth-replay.out" 2>&1 || {
  echo "FAIL: replay --check of the instrumented solve diverged"; cat "$tmpdir/synth-replay.out"; exit 1;
}
grep -q '^s REPLAY OK' "$tmpdir/synth-replay.out" || {
  echo "FAIL: no REPLAY OK verdict for the instrumented solve"; cat "$tmpdir/synth-replay.out"; exit 1;
}

echo "== oversized OPB coefficient is unsupported, not a crash =="
printf 'min: +1 x1 ;\n+12345678901234567890 x1 >= 1 ;\n' >"$tmpdir/big.opb"
rc=0
./_build/default/bin/bsolo_main.exe "$tmpdir/big.opb" >"$tmpdir/big.out" 2>&1 || rc=$?
[ "$rc" = 2 ] && grep -q '^s UNSUPPORTED$' "$tmpdir/big.out" || {
  echo "FAIL: 20-digit coefficient: exit $rc"; cat "$tmpdir/big.out"; exit 1;
}

echo "== a strengthening surplus beyond the coefficient limit is capped, not a crash =="
# Every coefficient is within the parser's 2^40, but probing x5 forces
# all four terms of the wide row: a surplus of about 2^41, which the
# default constraint strengthening must cap at what Constr accepts.
cat >"$tmpdir/surplus.opb" <<'EOF'
* #variable= 5 #constraint= 5
min: +1 x1 +1 x2 +1 x3 +1 x4 +1 x5 ;
+1099511627776 x1 +1099511627775 x2 +1099511627773 x3 +1099511627769 x4 >= 2199023255543 ;
+1 ~x5 +1 x1 >= 1 ;
+1 ~x5 +1 x2 >= 1 ;
+1 ~x5 +1 x3 >= 1 ;
+1 ~x5 +1 x4 >= 1 ;
EOF
rc=0
timeout 20 ./_build/default/bin/bsolo_main.exe "$tmpdir/surplus.opb" >"$tmpdir/surplus.out" 2>&1 || rc=$?
[ "$rc" = 0 ] && grep -q '^o 2$' "$tmpdir/surplus.out" \
  && grep -q '^s OPTIMUM FOUND$' "$tmpdir/surplus.out" || {
  echo "FAIL: strengthening surplus beyond the coefficient limit: exit $rc"; cat "$tmpdir/surplus.out"; exit 1;
}

echo "== huge OPB variable index is unsupported, not a crash =="
printf '+1 x1 +1 x99999999999 >= 1 ;\n' >"$tmpdir/hugevar.opb"
rc=0
timeout 20 ./_build/default/bin/bsolo_main.exe "$tmpdir/hugevar.opb" >"$tmpdir/hugevar.out" 2>&1 || rc=$?
[ "$rc" = 2 ] && grep -q '^s UNSUPPORTED$' "$tmpdir/hugevar.out" || {
  echo "FAIL: huge variable index: exit $rc"; cat "$tmpdir/hugevar.out"; exit 1;
}

echo "== huge DIMACS variable index is unsupported, not a crash =="
printf 'p cnf 3 1\n1 99999999999 0\n' >"$tmpdir/hugevar.cnf"
rc=0
timeout 20 ./_build/default/bin/bsolo_main.exe "$tmpdir/hugevar.cnf" >"$tmpdir/hugevar-cnf.out" 2>&1 || rc=$?
[ "$rc" = 2 ] && grep -q '^s UNSUPPORTED$' "$tmpdir/hugevar-cnf.out" || {
  echo "FAIL: huge DIMACS variable index: exit $rc"; cat "$tmpdir/hugevar-cnf.out"; exit 1;
}

echo "== non-positive or sub-10ms --heartbeat-every is rejected before any sink opens =="
# A zero or tiny period would snapshot on every ticker turn; a negative
# one has no meaning.  All must be refused up front, leaving no
# heartbeat file.
for every in 0 -1 1e-9; do
  rc=0
  ./_build/default/bin/bsolo_main.exe benchmarks/synth-s1.opb \
    --heartbeat "$tmpdir/hb-bad.jsonl" --heartbeat-every="$every" \
    >"$tmpdir/hb-bad.out" 2>&1 || rc=$?
  [ "$rc" = 2 ] && [ ! -e "$tmpdir/hb-bad.jsonl" ] || {
    echo "FAIL: --heartbeat-every $every: exit $rc"; cat "$tmpdir/hb-bad.out"; exit 1;
  }
done

echo "== oversized --record-ring is rejected before any allocation =="
# The ring is allocated up front, so a count above 2^24 would ask for
# the memory before the solve starts: refuse it with exit 2.
rc=0
./_build/default/bin/bsolo_main.exe benchmarks/synth-s1.opb \
  --record "$tmpdir/ring-bad.rec" --record-ring 1000000000000 >"$tmpdir/ring-bad.out" 2>&1 || rc=$?
[ "$rc" = 2 ] && grep -q '^c error: --record-ring allows at most' "$tmpdir/ring-bad.out" \
  && [ ! -e "$tmpdir/ring-bad.rec" ] || {
  echo "FAIL: oversized --record-ring: exit $rc"; cat "$tmpdir/ring-bad.out"; exit 1;
}

echo "== the removed --trace flag is refused =="
# Cmdliner would read --trace as an abbreviation of --trace-spans; solve
# must refuse it and name --record, writing nothing.
rc=0
./_build/default/bin/bsolo_main.exe benchmarks/synth-s1.opb \
  --trace "$tmpdir/old-trace.jsonl" >"$tmpdir/old-trace.out" 2>&1 || rc=$?
[ "$rc" = 2 ] && grep -q '^c error: --trace was removed: use --record' "$tmpdir/old-trace.out" \
  && [ ! -e "$tmpdir/old-trace.jsonl" ] && ! grep -q '^s ' "$tmpdir/old-trace.out" || {
  echo "FAIL: old --trace flag: exit $rc"; cat "$tmpdir/old-trace.out"; exit 1;
}

echo "== the removed --bcp flag is refused =="
# There is one propagation scheme: solve and replay reject the old flag
# as an unknown option (cmdliner's exit 124), solving nothing.
rc=0
./_build/default/bin/bsolo_main.exe benchmarks/synth-s1.opb --bcp watched \
  >"$tmpdir/old-bcp.out" 2>&1 || rc=$?
[ "$rc" = 124 ] && grep -q "unknown option '--bcp'" "$tmpdir/old-bcp.out" \
  && ! grep -q '^s ' "$tmpdir/old-bcp.out" || {
  echo "FAIL: old --bcp flag on solve: exit $rc"; cat "$tmpdir/old-bcp.out"; exit 1;
}
rc=0
./_build/default/bin/bsolo_main.exe replay benchmarks/synth-s1.opb "$tmpdir/old-bcp.out" \
  --bcp hybrid >"$tmpdir/old-bcp-replay.out" 2>&1 || rc=$?
[ "$rc" = 124 ] && grep -q "unknown option '--bcp'" "$tmpdir/old-bcp-replay.out" || {
  echo "FAIL: old --bcp flag on replay: exit $rc"; cat "$tmpdir/old-bcp-replay.out"; exit 1;
}

echo "== unwritable --metrics path is rejected before the solve =="
# The first exposition is written before the solve, so a bad path fails
# the way an unopenable --heartbeat does: exit 2, no answer lines.
rc=0
./_build/default/bin/bsolo_main.exe benchmarks/synth-s1.opb \
  --metrics "$tmpdir/no-such-dir/m.prom" >"$tmpdir/m-bad.out" 2>&1 || rc=$?
[ "$rc" = 2 ] && grep -q '^c error: cannot write metrics file' "$tmpdir/m-bad.out" \
  && ! grep -q '^s ' "$tmpdir/m-bad.out" || {
  echo "FAIL: unwritable --metrics path: exit $rc"; cat "$tmpdir/m-bad.out"; exit 1;
}

echo "== validate JSON report =="
grep -q '"schema":"bsolo-run-report/1"' "$tmpdir/report.json" || {
  echo "FAIL: report schema marker missing"; exit 1;
}

echo "== MILP baseline proves knap-s1 (warm node LPs) =="
# The MILP baseline re-solves one LP warm from node to node; solving each
# node from scratch took about 32 s here, so the hard timeout catches a
# regression to cold re-solves.
timeout 60 ./_build/default/bin/bsolo_main.exe --engine milp benchmarks/knap-s1.opb \
  >"$tmpdir/milp.txt" 2>&1 || {
  echo "FAIL: milp solve failed or hit the hard timeout"; cat "$tmpdir/milp.txt"; exit 1;
}
grep -q '^s OPTIMUM FOUND$' "$tmpdir/milp.txt" && grep -q '^o 300$' "$tmpdir/milp.txt" || {
  echo "FAIL: milp did not prove the optimum 300"; grep -v '^v ' "$tmpdir/milp.txt"; exit 1;
}

echo "== parallel portfolio solve (--jobs 2) =="
# Hard timeout so a hung worker domain fails the check instead of
# wedging it; the instance solves in well under the budget.
timeout 120 ./_build/default/bin/bsolo_main.exe benchmarks/synth-s1.opb \
  --portfolio --jobs 2 --timeout 60 --stats \
  >"$tmpdir/pstdout.txt" 2>"$tmpdir/pstderr.txt" || {
  echo "FAIL: portfolio solve failed or hit the hard timeout";
  cat "$tmpdir/pstdout.txt" "$tmpdir/pstderr.txt"; exit 1;
}
grep -q '^s OPTIMUM FOUND$' "$tmpdir/pstdout.txt" || {
  echo "FAIL: portfolio did not prove the optimum"; cat "$tmpdir/pstdout.txt"; exit 1;
}
grep -q '^c portfolio: jobs=2' "$tmpdir/pstdout.txt" || {
  echo "FAIL: portfolio summary line missing"; cat "$tmpdir/pstdout.txt"; exit 1;
}
grep -q 'portfolio\.incumbent_broadcasts' "$tmpdir/pstderr.txt" || {
  echo "FAIL: portfolio.* counters missing from --stats"; cat "$tmpdir/pstderr.txt"; exit 1;
}

bsolo=./_build/default/bin/bsolo_main.exe

echo "== observability solve (spans + heartbeat + metrics, --jobs 2) =="
timeout 120 "$bsolo" benchmarks/synth-s2.opb \
  --portfolio --jobs 2 --timeout 60 \
  --trace-spans "$tmpdir/spans.json" \
  --heartbeat "$tmpdir/heartbeat.jsonl" --heartbeat-every 0.2 \
  --metrics "$tmpdir/metrics.prom" \
  --json "$tmpdir/obs-report.json" \
  >"$tmpdir/obs.out" 2>&1 || {
  echo "FAIL: observability solve failed"; cat "$tmpdir/obs.out"; exit 1;
}

echo "== validate span trace (inspect --spans) =="
"$bsolo" inspect --spans "$tmpdir/spans.json" || {
  echo "FAIL: span trace failed validation"; exit 1;
}
# Every member track carries its member:<name> span, and the members'
# timers wrote lower_bound phase spans.
awk '
  function field(re, len) { return match($0, re) ? substr($0, RSTART + len, RLENGTH - len) : "" }
  /"name":"thread_name"/ {
    tid = field("\"tid\":[0-9]+", 6); name = field("\"args\":\\{\"name\":\"[^\"]*", 16)
    if (name != "main") tracks[tid] = name
  }
  /"ph":"X"/ && /"name":"member:/ { member[field("\"tid\":[0-9]+", 6)] = 1 }
  /"ph":"X"/ && /"name":"lower_bound"/ { lb++ }
  END {
    for (t in tracks) if (!(t in member)) { print "FAIL: member track " t " (" tracks[t] ") has no member: span"; bad = 1 }
    if (lb == 0) { print "FAIL: no lower_bound span"; bad = 1 }
    if (bad) exit 1
    n = 0; for (t in tracks) n++
    print "spans: " n " member tracks with their member: span, " lb " lower_bound spans"
  }
' "$tmpdir/spans.json"

echo "== a span trace killed mid-search still validates =="
# Each span is written whole when it ends, so SIGTERM mid-phase leaves
# no half-open span behind.
./_build/default/bin/genpb.exe knap --scale 1.5 --seed 6 -o "$tmpdir/knap15s6.opb" >/dev/null
timeout -s TERM 2 "$bsolo" "$tmpdir/knap15s6.opb" \
  --trace-spans "$tmpdir/killed-spans.json" >/dev/null 2>&1 || true
"$bsolo" inspect --spans "$tmpdir/killed-spans.json" || {
  echo "FAIL: span trace of a SIGTERM-killed solve failed validation"; exit 1;
}

echo "== validate heartbeat (inspect --live --check) =="
"$bsolo" inspect --live "$tmpdir/heartbeat.jsonl" --check || {
  echo "FAIL: heartbeat failed validation"; exit 1;
}
# The members' cells are gone by the final snapshot; the portfolio writes
# its answer into the main cell, so the last snapshot still has a best.
grep '"seq":' "$tmpdir/heartbeat.jsonl" | tail -1 | grep -q '"best":{' || {
  echo "FAIL: the last heartbeat snapshot carries no best incumbent";
  grep '"seq":' "$tmpdir/heartbeat.jsonl" | tail -1; exit 1;
}

echo "== run_id correlates report, spans and heartbeat =="
rid=$(sed -n 's/.*"run_id":"\([0-9a-f]*\)".*/\1/p' "$tmpdir/obs-report.json" | head -1)
[ -n "$rid" ] || { echo "FAIL: report has no run_id"; exit 1; }
grep -q "\"run_id\":\"$rid\"" "$tmpdir/spans.json" || {
  echo "FAIL: span header run_id != report run_id ($rid)"; exit 1;
}
grep -q "\"run_id\":\"$rid\"" "$tmpdir/heartbeat.jsonl" || {
  echo "FAIL: heartbeat header run_id != report run_id ($rid)"; exit 1;
}
echo "run_id $rid present in all three artifacts"

echo "== validate Prometheus metrics =="
[ -s "$tmpdir/metrics.prom" ] || { echo "FAIL: empty metrics file"; exit 1; }
grep -q '^# TYPE bsolo_' "$tmpdir/metrics.prom" || {
  echo "FAIL: no namespaced TYPE lines in metrics"; exit 1;
}

echo "== remote observability (--listen + top + SSE) =="
# Needs a solve that outlives the scrapes: every stock benchmark instance
# solves sub-second, so generate a harder knapsack that runs into its
# timeout.  Port 0 lets the kernel pick; the solver prints the bound
# address on stdout.
./_build/default/bin/genpb.exe knap --scale 8 --seed 7 -o "$tmpdir/hard.opb"
timeout 60 "$bsolo" "$tmpdir/hard.opb" \
  --portfolio --jobs 2 --timeout 15 --listen 127.0.0.1:0 \
  --heartbeat "$tmpdir/obsd-heartbeat.jsonl" --metrics "$tmpdir/obsd-metrics.prom" \
  --heartbeat-every 0.2 --json "$tmpdir/obsd-report.json" \
  >"$tmpdir/obsd.out" 2>&1 &
obsd_pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's|^c obsd: listening on http://127\.0\.0\.1:\([0-9]*\)$|\1|p' "$tmpdir/obsd.out")
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || {
  echo "FAIL: --listen never announced its address"; cat "$tmpdir/obsd.out"; exit 1;
}
"$bsolo" top --connect "127.0.0.1:$port" --get /healthz >"$tmpdir/healthz.out" || {
  echo "FAIL: /healthz not 200 during a live solve"; cat "$tmpdir/healthz.out"; exit 1;
}
"$bsolo" top --connect "127.0.0.1:$port" --get /status >"$tmpdir/status.json" || {
  echo "FAIL: /status fetch failed"; exit 1;
}
grep -q '"schema":"bsolo-status/1"' "$tmpdir/status.json" || {
  echo "FAIL: /status schema marker missing"; cat "$tmpdir/status.json"; exit 1;
}
# Members register with the server as the portfolio starts them, which can
# lag the listen announcement: poll until their metrics show up.
for _ in $(seq 1 50); do
  "$bsolo" top --connect "127.0.0.1:$port" --get /metrics >"$tmpdir/scrape.prom" || {
    echo "FAIL: /metrics scrape failed"; exit 1;
  }
  grep -q '^bsolo_portfolio_' "$tmpdir/scrape.prom" && break
  sleep 0.1
done
echo "== scraped exposition is lint-clean (inspect --metrics) =="
"$bsolo" inspect --metrics "$tmpdir/scrape.prom" || {
  echo "FAIL: scraped /metrics exposition failed lint"; exit 1;
}
grep -q '^bsolo_portfolio_' "$tmpdir/scrape.prom" || {
  echo "FAIL: live scrape carries no portfolio member metrics"; exit 1;
}
echo "== bsolo top renders 3 live frames =="
timeout 30 "$bsolo" top --connect "127.0.0.1:$port" --frames 3 >"$tmpdir/top.out" 2>&1 || {
  echo "FAIL: top did not render 3 heartbeat frames"; cat "$tmpdir/top.out"; exit 1;
}
# Exit 1 = UNKNOWN: expected, the hard instance is built to outlive its
# --timeout.  Anything else (crash, hard timeout kill) is a failure.
obsd_rc=0
wait "$obsd_pid" || obsd_rc=$?
case "$obsd_rc" in
  0|1) ;;
  *) echo "FAIL: --listen solve exited $obsd_rc"; cat "$tmpdir/obsd.out"; exit 1 ;;
esac
grep -q '^c obsd: served' "$tmpdir/obsd.out" || {
  echo "FAIL: no obsd request-count summary line"; cat "$tmpdir/obsd.out"; exit 1;
}
echo "== /status run_id matches the run report =="
orid=$(sed -n 's/.*"run_id":"\([0-9a-f]*\)".*/\1/p' "$tmpdir/obsd-report.json" | head -1)
[ -n "$orid" ] || { echo "FAIL: obsd report has no run_id"; exit 1; }
grep -q "\"run_id\":\"$orid\"" "$tmpdir/status.json" || {
  echo "FAIL: /status run_id != report run_id ($orid)"; cat "$tmpdir/status.json"; exit 1;
}
echo "obsd: $(grep '^c obsd: served' "$tmpdir/obsd.out")"
echo "== the same monitor wrote the heartbeat and metrics files =="
"$bsolo" inspect --live "$tmpdir/obsd-heartbeat.jsonl" --check || {
  echo "FAIL: --listen run's heartbeat failed validation"; exit 1;
}
"$bsolo" inspect --metrics "$tmpdir/obsd-metrics.prom" || {
  echo "FAIL: --listen run's metrics file failed lint"; exit 1;
}

echo "== --metrics alone is refreshed every tick and survives SIGTERM =="
# No heartbeat file and no server: the monitor still runs, so the file
# exists from the start, changes while the solve runs, and is rewritten
# by the signal path.
timeout 60 "$bsolo" "$tmpdir/hard.opb" --timeout 30 \
  --metrics "$tmpdir/alone.prom" --heartbeat-every 0.2 >"$tmpdir/alone.out" 2>&1 &
alone_pid=$!
for _ in $(seq 1 50); do [ -s "$tmpdir/alone.prom" ] && break; sleep 0.1; done
cp "$tmpdir/alone.prom" "$tmpdir/alone-first.prom" 2>/dev/null || {
  echo "FAIL: --metrics alone never wrote its file"; cat "$tmpdir/alone.out"; exit 1;
}
refreshed=0
for _ in $(seq 1 50); do
  sleep 0.1
  cmp -s "$tmpdir/alone.prom" "$tmpdir/alone-first.prom" || { refreshed=1; break; }
done
[ "$refreshed" = 1 ] || {
  echo "FAIL: --metrics alone was not rewritten during the solve"; exit 1;
}
"$bsolo" inspect --metrics "$tmpdir/alone.prom" || {
  echo "FAIL: live --metrics file failed lint"; exit 1;
}
kill -0 "$alone_pid" 2>/dev/null || {
  echo "FAIL: the --metrics solve ended before its checks"; cat "$tmpdir/alone.out"; exit 1;
}
kill -TERM "$alone_pid"
alone_rc=0
wait "$alone_pid" || alone_rc=$?
[ "$alone_rc" = 143 ] || {
  echo "FAIL: SIGTERM'd --metrics solve exited $alone_rc"; cat "$tmpdir/alone.out"; exit 1;
}
"$bsolo" inspect --metrics "$tmpdir/alone.prom" || {
  echo "FAIL: SIGTERM'd run left a metrics file that fails lint"; exit 1;
}

echo "== portfolio phase times are the members' summed timers =="
# Each member times its phases and the parent adds the self times after
# the join, so a --jobs 2 report has a non-empty phase table.
timeout 120 "$bsolo" benchmarks/synth-s1.opb \
  --portfolio --jobs 2 --timeout 60 --stats \
  --json "$tmpdir/portfolio-phases.json" \
  >"$tmpdir/pphases.out" 2>&1 || {
  echo "FAIL: portfolio phase-times solve failed"; cat "$tmpdir/pphases.out"; exit 1;
}
sed -n 's/.*"phases":{\([^}]*\)}.*/\1/p' "$tmpdir/portfolio-phases.json" \
  | sed -n 's/.*"propagate":\([-+.eE0-9]*\).*/\1/p' \
  | awk '{ if ($1 + 0 > 0) { print "portfolio phases: propagate " $1 " s"; ok = 1 } }
         END { exit !ok }' || {
  echo "FAIL: portfolio report has no propagate phase time";
  grep -o '"phases":{[^}]*}' "$tmpdir/portfolio-phases.json"; exit 1;
}

echo "== flight recording (--record -> replay --check -> inspect forensics) =="
timeout 120 "$bsolo" benchmarks/synth-s2.opb \
  --lb lpr --timeout 60 --record "$tmpdir/flight.rec" \
  >"$tmpdir/rec.out" 2>&1 || {
  echo "FAIL: recorded solve failed"; cat "$tmpdir/rec.out"; exit 1;
}
grep -q '^c recording:' "$tmpdir/rec.out" || {
  echo "FAIL: recording summary line missing"; cat "$tmpdir/rec.out"; exit 1;
}
timeout 120 "$bsolo" replay benchmarks/synth-s2.opb "$tmpdir/flight.rec" --check \
  >"$tmpdir/replay.out" 2>&1 || {
  echo "FAIL: replay --check diverged from the recording"; cat "$tmpdir/replay.out"; exit 1;
}
grep -q '^s REPLAY OK' "$tmpdir/replay.out" || {
  echo "FAIL: no REPLAY OK verdict"; cat "$tmpdir/replay.out"; exit 1;
}
echo "replay: $(grep '^c replay:' "$tmpdir/replay.out")"
"$bsolo" inspect forensics "$tmpdir/flight.rec" >"$tmpdir/forensics.out" 2>&1 || {
  echo "FAIL: forensics failed on the recording"; cat "$tmpdir/forensics.out"; exit 1;
}
# The blame table must reconcile with the engine's own node counter.
grep -q 'matches recorded fin' "$tmpdir/forensics.out" || {
  echo "FAIL: forensics node accounting does not match the recorded fin";
  cat "$tmpdir/forensics.out"; exit 1;
}

echo "== pbs and galena recordings replay and account (one search driver) =="
for engine in pbs galena; do
  timeout 120 "$bsolo" benchmarks/synth-s1.opb --engine "$engine" --timeout 60 \
    --record "$tmpdir/$engine.rec" >"$tmpdir/$engine-rec.out" 2>&1 || {
    echo "FAIL: recorded --engine $engine solve failed"; cat "$tmpdir/$engine-rec.out"; exit 1;
  }
  timeout 120 "$bsolo" replay benchmarks/synth-s1.opb "$tmpdir/$engine.rec" --check \
    >"$tmpdir/$engine-replay.out" 2>&1 || {
    echo "FAIL: replay --check of the $engine recording diverged"; cat "$tmpdir/$engine-replay.out"; exit 1;
  }
  grep -q '^s REPLAY OK' "$tmpdir/$engine-replay.out" || {
    echo "FAIL: no REPLAY OK verdict for the $engine recording"; cat "$tmpdir/$engine-replay.out"; exit 1;
  }
  "$bsolo" inspect forensics "$tmpdir/$engine.rec" >"$tmpdir/$engine-forensics.out" 2>&1 || {
    echo "FAIL: forensics failed on the $engine recording"; cat "$tmpdir/$engine-forensics.out"; exit 1;
  }
  grep -q 'matches recorded fin' "$tmpdir/$engine-forensics.out" || {
    echo "FAIL: $engine forensics node accounting does not match the recorded fin";
    cat "$tmpdir/$engine-forensics.out"; exit 1;
  }
  echo "$engine: $(grep '^c replay:' "$tmpdir/$engine-replay.out")"
done

echo "== recordings under non-default search flags replay =="
# Every search flag must land in the recording header: a run made with
# flags off their preset values replays only if replay rebuilds them.
# On knap-s2 the first case searches 2038 decisions, the default 504.
for case in "knap-s2 --cuts root --no-lp-branching --no-adaptive-lb --no-presolve" \
            "synth-s1 --engine pbs --lb lpr"; do
  instance="benchmarks/${case%% *}.opb"
  flags="${case#* }"
  timeout 120 "$bsolo" "$instance" $flags --timeout 60 \
    --record "$tmpdir/flags.rec" >"$tmpdir/flags-rec.out" 2>&1 || {
    echo "FAIL: recorded solve with $flags failed"; cat "$tmpdir/flags-rec.out"; exit 1;
  }
  timeout 120 "$bsolo" replay "$instance" "$tmpdir/flags.rec" --check \
    >"$tmpdir/flags-replay.out" 2>&1 || {
    echo "FAIL: replay --check of the run with $flags diverged"; cat "$tmpdir/flags-replay.out"; exit 1;
  }
  grep -q '^s REPLAY OK' "$tmpdir/flags-replay.out" || {
    echo "FAIL: no REPLAY OK verdict for the run with $flags"; cat "$tmpdir/flags-replay.out"; exit 1;
  }
  echo "$case: $(grep '^c replay:' "$tmpdir/flags-replay.out")"
done

echo "== a direct recording killed before its fin replays, but not as complete =="
# SIGTERM closes the recording at a line boundary, so nothing is torn:
# every recorded event replays, yet without the fin the recording does
# not prove the whole run, and --check says so.
timeout -s TERM 2 "$bsolo" "$tmpdir/knap15s6.opb" \
  --record "$tmpdir/killed.rec" >/dev/null 2>&1 || true
rc=0
timeout 120 "$bsolo" replay "$tmpdir/knap15s6.opb" "$tmpdir/killed.rec" \
  >"$tmpdir/killed-replay.out" 2>&1 || rc=$?
[ "$rc" = 0 ] && grep -Eq '^c replay: ([0-9]+)/\1 recorded events matched$' "$tmpdir/killed-replay.out" || {
  echo "FAIL: replay of the killed recording: exit $rc"; cat "$tmpdir/killed-replay.out"; exit 1;
}
rc=0
timeout 120 "$bsolo" replay "$tmpdir/knap15s6.opb" "$tmpdir/killed.rec" --check \
  >"$tmpdir/killed-check.out" 2>&1 || rc=$?
[ "$rc" = 1 ] && grep -q '^s REPLAY INCOMPLETE$' "$tmpdir/killed-check.out" || {
  echo "FAIL: replay --check of the killed recording: exit $rc (want 1, REPLAY INCOMPLETE)";
  cat "$tmpdir/killed-check.out"; exit 1;
}
"$bsolo" inspect forensics "$tmpdir/killed.rec" >"$tmpdir/killed-forensics.out" 2>&1 || {
  echo "FAIL: forensics failed on the killed recording"; cat "$tmpdir/killed-forensics.out"; exit 1;
}
grep -q '(no fin line' "$tmpdir/killed-forensics.out" || {
  echo "FAIL: forensics of the killed recording does not report the missing fin";
  cat "$tmpdir/killed-forensics.out"; exit 1;
}
echo "killed: $(grep '^c replay:' "$tmpdir/killed-replay.out"), --check INCOMPLETE"

echo "== a file that is not a bsolo-trace/2 recording is refused =="
printf 'bsolo-rec/1\n\007\000\002\001' >"$tmpdir/foreign.rec"
for cmd in "replay benchmarks/synth-s1.opb" "inspect forensics"; do
  rc=0
  "$bsolo" $cmd "$tmpdir/foreign.rec" >"$tmpdir/foreign.out" 2>&1 || rc=$?
  [ "$rc" = 2 ] && grep -q 'not a bsolo-trace/2 recording' "$tmpdir/foreign.out" || {
    echo "FAIL: $cmd on a bsolo-rec/1 file: exit $rc"; cat "$tmpdir/foreign.out"; exit 1;
  }
done

echo "== ring recording leaves a parseable tail after SIGTERM =="
timeout -s TERM 0.2 "$bsolo" benchmarks/synth-s2.opb \
  --lb lpr --record "$tmpdir/ring.rec" --record-ring 256 >/dev/null 2>&1 || true
[ -s "$tmpdir/ring.rec" ] || { echo "FAIL: SIGTERM left no ring recording"; exit 1; }
"$bsolo" inspect forensics "$tmpdir/ring.rec" >"$tmpdir/ring-forensics.out" 2>&1 || {
  echo "FAIL: SIGTERM-killed ring recording did not parse";
  cat "$tmpdir/ring-forensics.out"; exit 1;
}
echo "ring tail: $(sed -n '4p' "$tmpdir/ring-forensics.out")"

echo "== a synth-s2 recording replays =="
# A recorded run must replay byte-identically under replay --check.
timeout 120 "$bsolo" benchmarks/synth-s2.opb --timeout 60 \
  --record "$tmpdir/s2.rec" >/dev/null 2>&1 || {
  echo "FAIL: recorded synth-s2 solve failed"; exit 1;
}
timeout 120 "$bsolo" replay benchmarks/synth-s2.opb "$tmpdir/s2.rec" \
  --check >"$tmpdir/s2-replay.out" 2>&1 || {
  echo "FAIL: replay --check diverged from the synth-s2 recording";
  cat "$tmpdir/s2-replay.out"; exit 1;
}
grep -q '^s REPLAY OK' "$tmpdir/s2-replay.out" || {
  echo "FAIL: no REPLAY OK verdict for the synth-s2 recording"; exit 1;
}
echo "synth-s2 recording: REPLAY OK"

echo "== pinned search tree (genpb synth --scale 1 --seed 1) =="
# The search tree is deterministic: a propagation or cut-storage change
# that is meant to be invisible must leave these counters exactly as
# they are.  A deliberate tree change updates them.
./_build/default/bin/genpb.exe synth --scale 1 --seed 1 -o "$tmpdir/synth1.opb" >/dev/null
pinned='1274 decisions, 958 conflicts, 721 bound conflicts, 1689 lb calls'
timeout 120 "$bsolo" "$tmpdir/synth1.opb" --timeout 60 --stats \
  >"$tmpdir/pinned.out" 2>&1 || {
  echo "FAIL: pinned synth@1 solve failed"; cat "$tmpdir/pinned.out"; exit 1;
}
grep -q "^c OPTIMAL cost=5511 (.*s, $pinned)\$" "$tmpdir/pinned.out" || {
  echo "FAIL: synth@1 seed 1 left the pinned tree ($pinned)";
  grep '^c OPTIMAL\|^c UNKNOWN' "$tmpdir/pinned.out" || true; exit 1;
}
# the LP path of the same run, which a pivot-identical simplex change keeps
for counter in 'simplex.iterations +2960' 'simplex.pivots +1758' 'lpr.warm_hits +1200'; do
  grep -Eq "^c   $counter\$" "$tmpdir/pinned.out" || {
    echo "FAIL: synth@1 seed 1 left the pinned LP path (want $counter)";
    grep '^c   simplex\.\|^c   lpr\.' "$tmpdir/pinned.out" || true; exit 1;
  }
done
echo "pinned tree: $pinned; simplex.iterations 2960, simplex.pivots 1758, lpr.warm_hits 1200"

echo "== pinned PBS tree (benchmarks/synth-s1.opb --engine pbs) =="
# PBS has no lower bound: the knapsack cut (10), stored as a cut row,
# is its only pruning, so this pins the cut rows' propagation.
pinned_pbs='3906 decisions, 3256 conflicts, 0 bound conflicts, 0 lb calls'
timeout 120 "$bsolo" benchmarks/synth-s1.opb --engine pbs --timeout 60 \
  >"$tmpdir/pbs.out" 2>&1 || {
  echo "FAIL: pinned PBS synth-s1 solve failed"; cat "$tmpdir/pbs.out"; exit 1;
}
grep -q "^c OPTIMAL cost=3675 (.*s, $pinned_pbs)\$" "$tmpdir/pbs.out" || {
  echo "FAIL: PBS on synth-s1 left the pinned tree ($pinned_pbs)";
  grep '^c OPTIMAL\|^c UNKNOWN' "$tmpdir/pbs.out" || true; exit 1;
}
echo "pinned PBS tree: $pinned_pbs"

echo "== pinned LP path (genpb mcnc --scale 2 --seed 1) =="
# Every simplex pivot moves the LP vertex that drives branching and the
# proof's b/y/j steps, so an engine change meant to keep pivots
# bit-identical must leave these counters exactly as they are.  A
# deliberate pivot-rule or arithmetic change (the factored basis sums
# in another order than the tableau did) updates them.
./_build/default/bin/genpb.exe mcnc --scale 2 --seed 1 -o "$tmpdir/mcnc2.opb" >/dev/null
timeout 120 "$bsolo" "$tmpdir/mcnc2.opb" --timeout 60 --stats \
  >"$tmpdir/pinned-lp.out" 2>&1 || {
  echo "FAIL: pinned mcnc@2 solve failed"; cat "$tmpdir/pinned-lp.out"; exit 1;
}
grep -q '^c OPTIMAL cost=50 (.*s, 827 decisions, ' "$tmpdir/pinned-lp.out" || {
  echo "FAIL: mcnc@2 seed 1 left the pinned tree (827 decisions)";
  grep '^c OPTIMAL\|^c UNKNOWN' "$tmpdir/pinned-lp.out" || true; exit 1;
}
for counter in 'simplex.iterations +12085' 'simplex.pivots +11280'; do
  grep -Eq "^c   $counter\$" "$tmpdir/pinned-lp.out" || {
    echo "FAIL: mcnc@2 seed 1 left the pinned LP path (want $counter)";
    grep '^c   simplex\.' "$tmpdir/pinned-lp.out" || true; exit 1;
  }
done
echo "pinned LP path: 827 decisions, simplex.iterations 12085, simplex.pivots 11280"

echo "== pinned MIS path (genpb mcnc --scale 1.5 --seed 2, --lb mis) =="
# The MIS bound decides every prune and its certificate feeds the bound
# conflicts, so a change to the MIS procedure meant to return the same
# value, rows and multipliers must leave this tree exactly as it is.
./_build/default/bin/genpb.exe mcnc --scale 1.5 --seed 2 -o "$tmpdir/mcnc15.opb" >/dev/null
pinned_mis='12949 decisions, 12040 conflicts, 11804 bound conflicts, 24601 lb calls'
timeout 120 "$bsolo" "$tmpdir/mcnc15.opb" --lb mis --timeout 60 --stats \
  >"$tmpdir/pinned-mis.out" 2>&1 || {
  echo "FAIL: pinned mcnc@1.5 seed 2 MIS solve failed"; cat "$tmpdir/pinned-mis.out"; exit 1;
}
grep -q "^c OPTIMAL cost=39 (.*s, $pinned_mis)\$" "$tmpdir/pinned-mis.out" || {
  echo "FAIL: mcnc@1.5 seed 2 under --lb mis left the pinned tree ($pinned_mis)";
  grep '^c OPTIMAL\|^c UNKNOWN' "$tmpdir/pinned-mis.out" || true; exit 1;
}
echo "pinned MIS path: $pinned_mis"

echo "== pinned weighted MIS path (genpb knap --scale 1 --seed 1, --lb mis) =="
# Every mcnc row is a unit-coefficient clause, so the pin above never
# takes a fractional cover; knap rows have weights, so this one does.
# Its recording must replay event for event under `replay --check`.
./_build/default/bin/genpb.exe knap --scale 1 --seed 1 -o "$tmpdir/knap1.opb" >/dev/null
pinned_wmis='5609 decisions, 4956 conflicts, 3630 bound conflicts, 9088 lb calls'
timeout 120 "$bsolo" "$tmpdir/knap1.opb" --lb mis --timeout 60 \
  --record "$tmpdir/knap1-mis.rec" >"$tmpdir/pinned-wmis.out" 2>&1 || {
  echo "FAIL: pinned knap@1 seed 1 MIS solve failed"; cat "$tmpdir/pinned-wmis.out"; exit 1;
}
grep -q '^o 300$' "$tmpdir/pinned-wmis.out" \
  && grep -q "^c OPTIMAL cost=300 (.*s, $pinned_wmis)\$" "$tmpdir/pinned-wmis.out" || {
  echo "FAIL: knap@1 seed 1 under --lb mis left the pinned tree (o 300, $pinned_wmis)";
  grep '^o \|^c OPTIMAL\|^c UNKNOWN' "$tmpdir/pinned-wmis.out" || true; exit 1;
}
timeout 120 "$bsolo" replay "$tmpdir/knap1.opb" "$tmpdir/knap1-mis.rec" --check \
  >"$tmpdir/wmis-replay.out" 2>&1 || {
  echo "FAIL: replay --check of the knap@1 MIS recording diverged"; cat "$tmpdir/wmis-replay.out"; exit 1;
}
grep -q '^s REPLAY OK' "$tmpdir/wmis-replay.out" || {
  echo "FAIL: no REPLAY OK verdict for the knap@1 MIS recording"; cat "$tmpdir/wmis-replay.out"; exit 1;
}
echo "pinned weighted MIS path: o 300, $pinned_wmis, replay OK"

echo "== pinned MIS proof log (genpb knap --scale 1 --seed 1, --lb mis --proof) =="
# No counter sees the literal order of a learned clause or of a bound
# conflict's omega_bc, but the proof log writes both: the log minus its
# `# run` line must keep these bytes, and checkproof must verify it.
pinned_wmis_proof='e2338e13a15cef9659f4532f1248061c8a2b7e9be0c1d9b9a28bb3882d4d1762'
timeout 120 "$bsolo" "$tmpdir/knap1.opb" --lb mis --timeout 60 \
  --proof "$tmpdir/knap1-mis.pbp" >"$tmpdir/wmis-proof.out" 2>&1 || {
  echo "FAIL: knap@1 seed 1 MIS proof solve failed"; cat "$tmpdir/wmis-proof.out"; exit 1;
}
wmis_proof_sum=$(grep -v '^# run' "$tmpdir/knap1-mis.pbp" | sha256sum | cut -d' ' -f1)
[ "$wmis_proof_sum" = "$pinned_wmis_proof" ] || {
  echo "FAIL: knap@1 seed 1 --lb mis proof log changed (sha256 $wmis_proof_sum, want $pinned_wmis_proof)";
  exit 1;
}
"$bsolo" checkproof "$tmpdir/knap1.opb" "$tmpdir/knap1-mis.pbp" >"$tmpdir/wmis-proof.check" 2>&1 || {
  echo "FAIL: checkproof rejected the knap@1 MIS proof"; cat "$tmpdir/wmis-proof.check"; exit 1;
}
grep -q '^s VERIFIED OPTIMAL 300$' "$tmpdir/wmis-proof.check" || {
  echo "FAIL: no VERIFIED OPTIMAL 300 verdict for the knap@1 MIS proof"; cat "$tmpdir/wmis-proof.check"; exit 1;
}
echo "pinned MIS proof log: sha256 $pinned_wmis_proof, VERIFIED OPTIMAL 300"

echo "== pinned separator path (genpb knap --scale 1.5 --seed 1) =="
# Cover, clique and implied-bound cuts reach the LP here, so a
# separation change meant to return the same cuts (a skip filter, a
# dedup key) must leave the cut counters and the LP path exactly as
# they are.  A filter that drops a cut changes them.  Every cut
# eviction keeps the basis warm (no drop fallback).
./_build/default/bin/genpb.exe knap --scale 1.5 --seed 1 -o "$tmpdir/knap15.opb" >/dev/null
timeout 120 "$bsolo" "$tmpdir/knap15.opb" --timeout 60 --stats \
  >"$tmpdir/pinned-sep.out" 2>&1 || {
  echo "FAIL: pinned knap@1.5 seed 1 solve failed"; cat "$tmpdir/pinned-sep.out"; exit 1;
}
grep -q '^c OPTIMAL cost=358 (.*s, 1483 decisions, ' "$tmpdir/pinned-sep.out" || {
  echo "FAIL: knap@1.5 seed 1 left the pinned tree (1483 decisions)";
  grep '^c OPTIMAL\|^c UNKNOWN' "$tmpdir/pinned-sep.out" || true; exit 1;
}
for counter in 'cuts\.cover\.separated +194' 'cuts\.clique\.separated +3' \
  'cuts\.implied\.separated +9' 'simplex\.iterations +8208' \
  'lpr\.cold\.drop_fallback +0'; do
  grep -Eq "^c   $counter\$" "$tmpdir/pinned-sep.out" || {
    echo "FAIL: knap@1.5 seed 1 left the pinned separator path (want $counter)";
    grep '^c   cuts\.\|^c   simplex\.iterations\|^c   lpr\.cold' "$tmpdir/pinned-sep.out" || true; exit 1;
  }
done
echo "pinned separator path: 1483 decisions, cuts.cover/clique/implied.separated 194/3/9, simplex.iterations 8208, lpr.cold.drop_fallback 0"

echo "== portfolio recording stitches member sections =="
timeout 120 "$bsolo" benchmarks/synth-s1.opb \
  --portfolio --jobs 2 --timeout 60 --record "$tmpdir/portfolio.rec" \
  >"$tmpdir/prec.out" 2>&1 || {
  echo "FAIL: recorded portfolio solve failed"; cat "$tmpdir/prec.out"; exit 1;
}
"$bsolo" inspect forensics "$tmpdir/portfolio.rec" >"$tmpdir/pforensics.out" 2>&1 || {
  echo "FAIL: forensics failed on the stitched recording"; cat "$tmpdir/pforensics.out"; exit 1;
}
grep -q '^member ' "$tmpdir/pforensics.out" || {
  echo "FAIL: stitched recording has no member sections"; cat "$tmpdir/pforensics.out"; exit 1;
}

echo "== one-job portfolio recording reconciles its node accounting =="
timeout 120 "$bsolo" benchmarks/synth-s1.opb \
  --portfolio --jobs 1 --timeout 60 --record "$tmpdir/portfolio1.rec" \
  >"$tmpdir/prec1.out" 2>&1 || {
  echo "FAIL: recorded --jobs 1 portfolio solve failed"; cat "$tmpdir/prec1.out"; exit 1;
}
"$bsolo" inspect forensics "$tmpdir/portfolio1.rec" >"$tmpdir/pforensics1.out" 2>&1 || {
  echo "FAIL: forensics failed on the --jobs 1 recording"; cat "$tmpdir/pforensics1.out"; exit 1;
}
grep -q 'matches recorded fin' "$tmpdir/pforensics1.out" \
  && ! grep -q 'MISMATCH' "$tmpdir/pforensics1.out" || {
  echo "FAIL: --jobs 1 forensics node accounting does not match the recorded fin";
  cat "$tmpdir/pforensics1.out"; exit 1;
}

echo "== cut separation modes agree (--cuts=off / root / tree) =="
# Cuts shape the bound, never the answer: all three modes (and a
# presolve-disabled run) must print identical s/o lines on the
# general-coefficient knapsack instance where cuts actually fire.
for mode in off root tree; do
  timeout 120 "$bsolo" benchmarks/knap-s1.opb --timeout 60 --cuts "$mode" \
    >"$tmpdir/cuts-$mode.out" 2>&1 || {
    echo "FAIL: --cuts $mode solve failed"; cat "$tmpdir/cuts-$mode.out"; exit 1;
  }
  grep -E '^[so] ' "$tmpdir/cuts-$mode.out" >"$tmpdir/cuts-$mode.opt"
done
for mode in root tree; do
  cmp -s "$tmpdir/cuts-off.opt" "$tmpdir/cuts-$mode.opt" || {
    echo "FAIL: --cuts $mode optimum differs from --cuts off";
    diff "$tmpdir/cuts-off.opt" "$tmpdir/cuts-$mode.opt" || true; exit 1;
  }
done
timeout 120 "$bsolo" benchmarks/knap-s1.opb --timeout 60 --no-presolve \
  >"$tmpdir/cuts-nopre.out" 2>&1 || {
  echo "FAIL: --no-presolve solve failed"; cat "$tmpdir/cuts-nopre.out"; exit 1;
}
grep -E '^[so] ' "$tmpdir/cuts-nopre.out" >"$tmpdir/cuts-nopre.opt"
cmp -s "$tmpdir/cuts-off.opt" "$tmpdir/cuts-nopre.opt" || {
  echo "FAIL: --no-presolve optimum differs";
  diff "$tmpdir/cuts-off.opt" "$tmpdir/cuts-nopre.opt" || true; exit 1;
}
# The instrumented run must actually separate something, and the cut
# pool must surface in the inspect report.
timeout 120 "$bsolo" benchmarks/knap-s2.opb --timeout 60 --cuts tree --stats \
  --json "$tmpdir/cuts-report.json" >"$tmpdir/cuts-stats.out" 2>&1 || {
  echo "FAIL: --cuts tree --stats solve failed"; cat "$tmpdir/cuts-stats.out"; exit 1;
}
grep -Eq 'cuts\.(cover|clique|implied)\.separated' "$tmpdir/cuts-stats.out" || {
  echo "FAIL: cuts.* counters missing from --stats"; cat "$tmpdir/cuts-stats.out"; exit 1;
}
"$bsolo" inspect "$tmpdir/cuts-report.json" >"$tmpdir/cuts-inspect.out" 2>&1 || {
  echo "FAIL: inspect failed on the cuts report"; cat "$tmpdir/cuts-inspect.out"; exit 1;
}
grep -q 'cut pool and presolve:' "$tmpdir/cuts-inspect.out" || {
  echo "FAIL: inspect report has no cut-pool table"; cat "$tmpdir/cuts-inspect.out"; exit 1;
}
echo "cut modes: identical optima, counters and pool table present"

if [ "$with_proof" = 1 ]; then
  echo "== proof-checked solves (--proof) =="
  for inst in synth-s1 grout-s1 mcnc-s1 acc-s1 knap-s1; do
    f=benchmarks/$inst.opb
    timeout 120 "$bsolo" "$f" --timeout 60 --proof "$tmpdir/$inst.pbp" \
      >"$tmpdir/$inst.out" 2>&1 || {
      echo "FAIL: proof-logged solve failed on $inst"; cat "$tmpdir/$inst.out"; exit 1;
    }
    "$bsolo" checkproof "$f" "$tmpdir/$inst.pbp" >"$tmpdir/$inst.check" 2>&1 || {
      echo "FAIL: checkproof rejected $inst"; cat "$tmpdir/$inst.check"; exit 1;
    }
    grep -q '^s VERIFIED' "$tmpdir/$inst.check" || {
      echo "FAIL: no VERIFIED verdict for $inst"; cat "$tmpdir/$inst.check"; exit 1;
    }
    echo "$inst: $(grep '^s VERIFIED' "$tmpdir/$inst.check")"
  done
  # The default engine lower-bounds with warm-started LPR; at least one
  # instance must have pruned through certified (b-step) bound conflicts
  # or the cutting-planes half of the format went untested.
  grep -hE 'proof: .* [1-9][0-9]* bound,' "$tmpdir"/*.check >/dev/null || {
    echo "FAIL: no run exercised certified LPR bound-conflict steps";
    grep -h '^c proof:' "$tmpdir"/*.check; exit 1;
  }

  echo "== proof-checked pbs (--engine pbs --proof) =="
  timeout 120 "$bsolo" benchmarks/synth-s1.opb --engine pbs --timeout 60 \
    --proof "$tmpdir/pbs.pbp" >"$tmpdir/pbs-proof.out" 2>&1 || {
    echo "FAIL: proof-logged pbs solve failed"; cat "$tmpdir/pbs-proof.out"; exit 1;
  }
  "$bsolo" checkproof benchmarks/synth-s1.opb "$tmpdir/pbs.pbp" >"$tmpdir/pbs-proof.check" 2>&1 || {
    echo "FAIL: checkproof rejected the pbs proof"; cat "$tmpdir/pbs-proof.check"; exit 1;
  }
  grep -q '^s VERIFIED' "$tmpdir/pbs-proof.check" || {
    echo "FAIL: no VERIFIED verdict for the pbs proof"; cat "$tmpdir/pbs-proof.check"; exit 1;
  }
  echo "pbs: $(grep '^s VERIFIED' "$tmpdir/pbs-proof.check")"

  echo "== proof-checked parallel portfolio (--jobs 2) =="
  timeout 120 "$bsolo" benchmarks/synth-s1.opb \
    --portfolio --jobs 2 --timeout 60 --proof "$tmpdir/portfolio.pbp" \
    >"$tmpdir/pproof.out" 2>&1 || {
    echo "FAIL: proof-logged portfolio solve failed"; cat "$tmpdir/pproof.out"; exit 1;
  }
  "$bsolo" checkproof benchmarks/synth-s1.opb "$tmpdir/portfolio.pbp" \
    >"$tmpdir/pproof.check" 2>&1 || {
    echo "FAIL: checkproof rejected the stitched portfolio proof";
    cat "$tmpdir/pproof.check"; exit 1;
  }
  grep -q '^s VERIFIED' "$tmpdir/pproof.check" || {
    echo "FAIL: no VERIFIED verdict for the portfolio proof"; cat "$tmpdir/pproof.check"; exit 1;
  }
  # Imports are verified solution steps of the importer's section; the
  # format has no unverified import step.
  ! grep -q '^i ' "$tmpdir/portfolio.pbp" || {
    echo "FAIL: the stitched portfolio proof has i steps"; grep -c '^i ' "$tmpdir/portfolio.pbp"; exit 1;
  }
  echo "portfolio: $(grep '^s VERIFIED' "$tmpdir/pproof.check")"

  echo "== proof-checked one-job portfolio (--jobs 1) =="
  timeout 120 "$bsolo" benchmarks/synth-s1.opb \
    --portfolio --jobs 1 --timeout 60 --proof "$tmpdir/portfolio1.pbp" \
    >"$tmpdir/pproof1.out" 2>&1 || {
    echo "FAIL: proof-logged --jobs 1 portfolio solve failed"; cat "$tmpdir/pproof1.out"; exit 1;
  }
  "$bsolo" checkproof benchmarks/synth-s1.opb "$tmpdir/portfolio1.pbp" \
    >"$tmpdir/pproof1.check" 2>&1 || {
    echo "FAIL: checkproof rejected the stitched --jobs 1 portfolio proof";
    cat "$tmpdir/pproof1.check"; exit 1;
  }
  grep -q '^s VERIFIED' "$tmpdir/pproof1.check" || {
    echo "FAIL: no VERIFIED verdict for the --jobs 1 portfolio proof";
    cat "$tmpdir/pproof1.check"; exit 1;
  }
  ! grep -q '^i ' "$tmpdir/portfolio1.pbp" || {
    echo "FAIL: the stitched --jobs 1 portfolio proof has i steps";
    grep -c '^i ' "$tmpdir/portfolio1.pbp"; exit 1;
  }
  echo "portfolio (jobs 1): $(grep '^s VERIFIED' "$tmpdir/pproof1.check")"

  echo "== certified cut separation (--cuts=tree --proof) =="
  # The knapsack instance has general coefficients, so cover cuts and
  # presolve tightenings actually fire; every one must enter the log as
  # a j (cutting-planes) step the checker replays exactly.
  timeout 120 "$bsolo" benchmarks/knap-s1.opb --timeout 60 \
    --cuts tree --proof "$tmpdir/cuts.pbp" >"$tmpdir/cuts-proof.out" 2>&1 || {
    echo "FAIL: --cuts tree proof-logged solve failed"; cat "$tmpdir/cuts-proof.out"; exit 1;
  }
  grep -q '^j ' "$tmpdir/cuts.pbp" || {
    echo "FAIL: no j (cutting-planes derivation) steps in the cuts proof"; exit 1;
  }
  "$bsolo" checkproof benchmarks/knap-s1.opb "$tmpdir/cuts.pbp" \
    >"$tmpdir/cuts-proof.check" 2>&1 || {
    echo "FAIL: checkproof rejected the cut derivations"; cat "$tmpdir/cuts-proof.check"; exit 1;
  }
  grep -q '^s VERIFIED' "$tmpdir/cuts-proof.check" || {
    echo "FAIL: no VERIFIED verdict for the cuts proof"; cat "$tmpdir/cuts-proof.check"; exit 1;
  }
  echo "cuts: $(grep '^s VERIFIED' "$tmpdir/cuts-proof.check") ($(grep -c '^j ' "$tmpdir/cuts.pbp") j steps)"

  echo "== proof-checked generated instance (knap --scale 1.5 --seed 1) =="
  # The slowest certified check of the perf tier: thousands of RUP
  # steps, not just the tiny committed instances.  Its optimum is the
  # reference answer in bench/perf/optima.txt.
  ./_build/default/bin/genpb.exe knap --scale 1.5 --seed 1 -o "$tmpdir/knap15.opb" >/dev/null
  timeout 120 "$bsolo" "$tmpdir/knap15.opb" --timeout 60 --proof "$tmpdir/knap15.pbp" \
    >"$tmpdir/knap15.out" 2>&1 || {
    echo "FAIL: proof-logged solve failed on knap@1.5"; cat "$tmpdir/knap15.out"; exit 1;
  }
  timeout 60 "$bsolo" checkproof "$tmpdir/knap15.opb" "$tmpdir/knap15.pbp" \
    >"$tmpdir/knap15.check" 2>&1 || {
    echo "FAIL: checkproof rejected (or timed out on) knap@1.5"; cat "$tmpdir/knap15.check"; exit 1;
  }
  grep -q '^s VERIFIED OPTIMAL 358$' "$tmpdir/knap15.check" || {
    echo "FAIL: knap@1.5 not verified at its optimum 358"; cat "$tmpdir/knap15.check"; exit 1;
  }
  echo "knap@1.5: $(grep '^s VERIFIED' "$tmpdir/knap15.check") ($(grep '^c check:' "$tmpdir/knap15.check"))"
fi

echo "smoke: OK"
