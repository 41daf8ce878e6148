#!/bin/sh
# Daemon smoke (CI gate, well under a minute): boots `realtor-scen
# serve` against the committed scenario packages, drives it the way a
# user would, and checks the management plane's load-bearing promises
# end to end:
#
#   1. /healthz answers and carries a build identity.
#   2. Two packages submitted CONCURRENTLY through the realtor-scen
#      thin client produce summaries byte-identical (cmp, not jq) to
#      local `realtor-scen run -json` runs — at 1 shard, and one of
#      them again at 4 shards.
#   3. A long live-backend run (an inline spec: one package stretched
#      to a million scaled seconds) is cancelled mid-flight and ends in
#      state "canceled" with no summary field in its record.
#   4. SIGTERM drains the daemon: it exits 0 on its own.
#
# Needs only POSIX sh, curl, and cmp. Run from the repo root.
set -eu

GO=${GO:-go}
PORT=${PORT:-7171}
BASE=http://127.0.0.1:$PORT
TMP=$(mktemp -d)
DPID=
cleanup() {
    [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "== build"
$GO build -o "$TMP/realtor-scen" ./cmd/realtor-scen

echo "== boot"
"$TMP/realtor-scen" serve -addr "127.0.0.1:$PORT" -dir scenarios \
    -history "$TMP/history.jsonl" -workers 2 &
DPID=$!
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -le 50 ] || { echo "daemon never became healthy"; exit 1; }
    sleep 0.2
done
curl -fsS "$BASE/healthz" | grep -q '"status":"ok"' || { echo "bad healthz"; exit 1; }

echo "== concurrent runs, byte-compared to local"
PKG_A=baseline-poisson
PKG_B=dht-churn
"$TMP/realtor-scen" run -json -server "$BASE" "$PKG_A" >"$TMP/a.remote" &
APID=$!
"$TMP/realtor-scen" run -json -server "$BASE" "$PKG_B" >"$TMP/b.remote" &
BPID=$!
wait "$APID"
wait "$BPID"
"$TMP/realtor-scen" run -json "$PKG_A" >"$TMP/a.local"
"$TMP/realtor-scen" run -json "$PKG_B" >"$TMP/b.local"
cmp "$TMP/a.remote" "$TMP/a.local"
cmp "$TMP/b.remote" "$TMP/b.local"

echo "== shard-4 run, byte-compared to local"
"$TMP/realtor-scen" run -json -server "$BASE" -shards 4 "$PKG_A" >"$TMP/a4.remote"
"$TMP/realtor-scen" run -json -shards 4 "$PKG_A" >"$TMP/a4.local"
cmp "$TMP/a4.remote" "$TMP/a4.local"
cmp "$TMP/a.local" "$TMP/a4.local"   # shard-count invariance, while we're here

echo "== cancel a long live run"
SPEC=$(sed 's/"duration": [0-9.]*/"duration": 1000000/' "scenarios/$PKG_A/scenario.json")
ID=$(curl -fsS -X POST "$BASE/runs" \
    -d "{\"backend\":\"live\",\"spec\":$SPEC}" |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || { echo "submit returned no id"; exit 1; }
curl -fsS -X DELETE "$BASE/runs/$ID" >/dev/null
i=0
while :; do
    STATE=$(curl -fsS "$BASE/runs/$ID" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [ "$STATE" = canceled ] && break
    case "$STATE" in done|failed) echo "run ended $STATE, want canceled"; exit 1;; esac
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "cancel never landed (state $STATE)"; exit 1; }
    sleep 0.1
done
curl -fsS "$BASE/runs/$ID" | grep -q '"summary"' && {
    echo "canceled run recorded a summary"; exit 1; }

echo "== graceful shutdown"
kill -TERM "$DPID"
wait "$DPID"
DPID=
echo "daemon-smoke: ok"
