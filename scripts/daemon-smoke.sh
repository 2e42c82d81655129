#!/usr/bin/env bash
# Daemon smoke test: builds cmd/gatekeeper and cmd/gramclient, serves a
# callout-mode gatekeeper whose callout configuration gives the
# job-manager type — the one the default placement consults for every
# decision here — one options line with the per-PDP timeout, retries
# and breaker, on an ephemeral port with /metrics on another, then
# drives one permitted submit (must exit 0) and one denied submit (must
# exit 1), scrapes /metrics once (at least one permit and one deny
# decision, no error decision) and stops the daemon with SIGTERM (it
# must exit 0). Last, it starts the gatekeeper once more on a config
# whose line 2 names the removed "cache" option key: startup must fail
# (non-zero exit, never "listening on") with an error naming line 2 and
# the key.
#
# Usage: scripts/daemon-smoke.sh [work-dir]   (default: a fresh temp dir)
set -euo pipefail

dir=${1:-$(mktemp -d)}
mkdir -p "$dir"
go build -o "$dir/gatekeeper" ./cmd/gatekeeper
go build -o "$dir/gramclient" ./cmd/gramclient

printf '"/O=Grid/CN=Alice" alice\n' > "$dir/gridmap"
cat > "$dir/vo.policy" <<'EOF'
/O=Grid/CN=Alice: &(action = start)(executable = sim)(count<8)(jobtag != NULL) &(action = cancel information signal)(jobowner = self)
EOF
cat > "$dir/callouts.conf" <<EOF
globus_gram_jobmanager_authz plainfile path=$dir/vo.policy source=VO:NFC
globus_gram_jobmanager_authz options pdp-timeout=2s retries=1 breaker=on
globus_gatekeeper_authz plainfile path=$dir/vo.policy source=VO:NFC
EOF

"$dir/gatekeeper" -state "$dir/grid" -gridmap "$dir/gridmap" -mode callout \
    -callout-config "$dir/callouts.conf" -listen 127.0.0.1:0 \
    -metrics-addr 127.0.0.1:0 2> "$dir/gatekeeper.log" &
gk=$!
trap 'kill "$gk" 2> /dev/null || true' EXIT

addr=
for _ in $(seq 100); do # up to 10 s
    addr=$(sed -n 's/.*listening on \([^ ]*\) .*/\1/p' "$dir/gatekeeper.log")
    [ -n "$addr" ] && break
    kill -0 "$gk" 2> /dev/null || break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "daemon-smoke: gatekeeper did not start listening within 10 s" >&2
    cat "$dir/gatekeeper.log" >&2
    exit 1
fi

client=("$dir/gramclient" -state "$dir/grid" -server "$addr" -user "/O=Grid/CN=Alice")
"${client[@]}" submit '&(executable=sim)(count=4)(jobtag=demo)(simduration=120)'
rc=0
"${client[@]}" submit '&(executable=sim)(count=16)(jobtag=demo)' || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "daemon-smoke: denied submit exited $rc, want 1" >&2
    exit 1
fi

metrics=$(sed -n 's#.*observability on http://\([^ ]*\)/metrics .*#\1#p' "$dir/gatekeeper.log")
curl -fsS "http://$metrics/metrics" > "$dir/metrics.txt"
count() { awk -v name="$1" '$1 == name { print $2 }' "$dir/metrics.txt"; }
permit=$(count authz_decisions_permit_total)
deny=$(count authz_decisions_deny_total)
errors=$(count authz_decisions_error_total)
if [ "${permit:-0}" -lt 1 ] || [ "${deny:-0}" -lt 1 ] || [ "${errors:-1}" -ne 0 ]; then
    echo "daemon-smoke: /metrics at $metrics reads permit=$permit deny=$deny error=$errors, want permit>=1 deny>=1 error=0" >&2
    exit 1
fi

kill -TERM "$gk"
rc=0
wait "$gk" || rc=$?
trap - EXIT
if [ "$rc" -ne 0 ]; then
    echo "daemon-smoke: gatekeeper exited $rc after SIGTERM" >&2
    cat "$dir/gatekeeper.log" >&2
    exit 1
fi

cat > "$dir/removed.conf" <<EOF
globus_gram_jobmanager_authz plainfile path=$dir/vo.policy source=VO:NFC
globus_gram_jobmanager_authz options cache=on
EOF
rc=0
timeout 10 "$dir/gatekeeper" -state "$dir/grid" -gridmap "$dir/gridmap" -mode callout \
    -callout-config "$dir/removed.conf" -listen 127.0.0.1:0 2> "$dir/removed.log" || rc=$?
if [ "$rc" -eq 0 ] || grep -q "listening on" "$dir/removed.log" ||
    ! grep -q 'line 2: option "cache" was removed' "$dir/removed.log"; then
    echo "daemon-smoke: a config naming the removed cache key exited $rc, want a startup refusal naming line 2 and the key" >&2
    cat "$dir/removed.log" >&2
    exit 1
fi
echo "daemon-smoke: ok ($addr; permit=$permit deny=$deny error=$errors; removed key refused)"
