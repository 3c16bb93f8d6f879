#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end smoke for the fleet-scale sharded fuzzing
# path, the CI job behind the "worker count is unobservable" claim:
#
#   1. Single-process baseline: a bounded, defect-seeded, pure-generation
#      fuzz run. Its finding stream is the reference the fleet must
#      reproduce byte-for-byte, and it must hold miscompilations, so the
#      comparison covers oracle findings and not only crashes.
#   2. Fleet campaign over a unix socket: coordinator with durable state
#      plus two external worker processes. SIGKILL one worker mid-lease —
#      the coordinator must notice the loss, return its leases to pending
#      and re-issue them to the survivor. Probe the admin plane
#      (/healthz, /statusz with the fleet section) while it runs, then
#      SIGKILL the coordinator itself mid-campaign: no shutdown path
#      runs, the journal and checkpoint are all that survive.
#   3. Resume: a fresh coordinator (-resume, -fleet 2) restores the
#      watermark, the totals and journal-seeded dedup and finishes the
#      budget. A lease result carries only findings and counters, so
#      there is no corpus to restore.
#   4. The combined journal's finding sequence must be identical to the
#      single-process baseline's — same fingerprints, same canonical
#      order, despite the sharding, the worker kill, the lease re-issue
#      and the coordinator crash. (Fingerprints of reduced findings hash
#      the alpha-renamed witness, so sequence identity implies witness
#      byte identity; the in-process race-enabled tests in internal/fleet
#      assert the full finding structs field by field.)
set -euo pipefail
cd "$(dirname "$0")/.."

dir="$(mktemp -d)"
cleanup() {
  local pids
  pids=$(jobs -p) || true
  [ -n "$pids" ] && kill $pids 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT
bin="$dir/p4gauntlet"
go build -o "$bin" ./cmd/p4gauntlet

# fetch URL: curl when available, wget fallback (CI images vary).
fetch() {
  if command -v curl >/dev/null 2>&1; then curl -sf "$1"; else wget -qO- "$1"; fi
}

# The budget stays below the engine's per-pass reduction cap (64
# candidates per failing pass): fleet leases apply the cap per lease,
# so a baseline that hits it reduces fewer candidates than the fleet.
# At seed 11 these defects give 47 miscompilations in 512 slots.
SEEDS=512
SLOTS=64
SEED=11
DEFECTS="P4C-C-17,P4C-C-13,P4C-S-02"

echo "--- phase 1: single-process baseline ($SEEDS seeds, defect-seeded)"
"$bin" -mode fuzz -seeds "$SEEDS" -seed "$SEED" -mutate-ratio 0 \
  -defects "$DEFECTS" -jsonl "$dir/base.jsonl" >/dev/null 2>"$dir/base.err" || true
base_count=$(grep -c '"kind"' "$dir/base.jsonl" || true)
if [ "${base_count:-0}" -eq 0 ]; then
  echo "FAIL: baseline run produced no findings (the seeded defects must fire)"
  cat "$dir/base.err"
  exit 1
fi
base_mis=$(grep -c '"kind":"miscompilation"' "$dir/base.jsonl" || true)
if [ "${base_mis:-0}" -eq 0 ]; then
  echo "FAIL: baseline run produced no miscompilation (the semantic defect must reach the oracle)"
  cat "$dir/base.err"
  exit 1
fi
echo "phase 1 ok: $base_count baseline findings, $base_mis miscompilations"

echo "--- phase 2: fleet over a unix socket, SIGKILL a worker, then the coordinator"
sock="$dir/fleet.sock"
port=$((20000 + RANDOM % 20000))
"$bin" -mode coordinator -listen "$sock" -seeds "$SEEDS" -seed "$SEED" \
  -lease-slots "$SLOTS" -workers 2 -defects "$DEFECTS" -state "$dir/state" \
  -http "127.0.0.1:$port" -jsonl "$dir/fleet1.jsonl" 2>"$dir/coord1.err" &
coord=$!
"$bin" -mode worker -connect "$sock" -worker-name wA 2>"$dir/wA.err" &
wa=$!
"$bin" -mode worker -connect "$sock" -worker-name wB 2>"$dir/wB.err" &
wb=$!

# Kill wA once it is provably mid-lease (it logged the lease start, and
# leases are long enough that it is still running it).
for _ in $(seq 1 150); do
  grep -q "running lease" "$dir/wA.err" 2>/dev/null && break
  sleep 0.1
done
grep -q "running lease" "$dir/wA.err" \
  || { echo "FAIL: worker wA never started a lease"; cat "$dir/coord1.err" "$dir/wA.err"; exit 1; }

health=$(fetch "http://127.0.0.1:$port/healthz" || true)
if [ "$health" != "ok" ]; then
  echo "FAIL: /healthz answered '${health:-nothing}', want 'ok'"
  cat "$dir/coord1.err"
  exit 1
fi
fetch "http://127.0.0.1:$port/statusz" > "$dir/statusz.json" \
  || { echo "FAIL: /statusz unreachable"; exit 1; }
grep -q '"mode": "coordinator"' "$dir/statusz.json" \
  || { echo "FAIL: /statusz is missing the fleet section"; head "$dir/statusz.json"; exit 1; }
grep -q '"leases_total"' "$dir/statusz.json" \
  || { echo "FAIL: /statusz fleet section malformed"; head "$dir/statusz.json"; exit 1; }

kill -9 "$wa"
wait "$wa" 2>/dev/null || true

# Connection loss must beat the lease-timeout clock: the dead worker's
# leases return to pending immediately.
for _ in $(seq 1 50); do
  grep -q "back to pending" "$dir/coord1.err" 2>/dev/null && break
  sleep 0.1
done
grep -q "back to pending" "$dir/coord1.err" \
  || { echo "FAIL: coordinator never re-issued the killed worker's lease"; cat "$dir/coord1.err"; exit 1; }
echo "phase 2 ok: worker killed mid-lease, lease back to pending"

# Let the surviving worker make progress, then crash the coordinator.
for _ in $(seq 1 200); do
  kill -0 "$coord" 2>/dev/null || break
  n=$(sed -n 's/.*watermark lease \([0-9]*\)\/.*/\1/p' "$dir/coord1.err" | tail -1)
  [ -n "${n:-}" ] && [ "$n" -ge 4 ] && break
  sleep 0.1
done
if kill -0 "$coord" 2>/dev/null; then
  kill -9 "$coord" 2>/dev/null || true
  echo "coordinator killed mid-campaign"
else
  echo "note: campaign finished before the coordinator kill; resume leg degenerates to a no-op resume"
fi
wait "$coord" 2>/dev/null || true
wait "$wb" 2>/dev/null || true

echo "--- phase 3: resume with a fresh coordinator and a forked fleet"
"$bin" -mode coordinator -listen "$sock" -resume "$dir/state" -fleet 2 \
  -seeds "$SEEDS" -seed "$SEED" -lease-slots "$SLOTS" -workers 2 \
  -defects "$DEFECTS" -jsonl "$dir/fleet2.jsonl" 2>"$dir/coord2.err" || true
grep -q "campaign complete" "$dir/coord2.err" \
  || { echo "FAIL: resumed campaign did not complete"; cat "$dir/coord2.err"; exit 1; }
grep -q "^resume: watermark slot" "$dir/coord2.err" \
  || { echo "FAIL: resume did not restore from the state directory"; cat "$dir/coord2.err"; exit 1; }
echo "phase 3 ok: $(grep '^resume: watermark slot' "$dir/coord2.err")"

echo "--- phase 4: journal sequence vs baseline finding stream"
# Ordered fingerprint sequences (not sorted sets): canonical report order
# is part of the contract.
fpseq() { grep -o '"fingerprint":[0-9]*' "$1" || true; }
if ! diff <(fpseq "$dir/base.jsonl") <(fpseq "$dir/state/journal.jsonl") > "$dir/fp.diff"; then
  echo "FAIL: fleet journal diverges from the single-process baseline:"
  cat "$dir/fp.diff"
  exit 1
fi
# And the two coordinator incarnations' streams must partition the
# baseline: no fingerprint reported by both.
dups=$(comm -12 <(fpseq "$dir/fleet1.jsonl" | sort -u) <(fpseq "$dir/fleet2.jsonl" | sort -u) | wc -l)
if [ "$dups" -ne 0 ]; then
  echo "FAIL: $dups finding fingerprint(s) re-reported after the coordinator crash"
  exit 1
fi
echo "phase 4 ok: $base_count findings, identical sequence, no re-reports across the crash"
echo "fleet smoke: PASS"
