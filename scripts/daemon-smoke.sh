#!/usr/bin/env bash
# Daemon smoke test: builds cmd/gatekeeper and cmd/gramclient, serves a
# callout-mode gatekeeper whose callout configuration gives the
# job-manager type — the one the default placement consults for every
# decision here — one options line with the per-PDP timeout, retries
# and breaker, on an ephemeral port with /metrics on another, then
# drives one permitted submit (must exit 0) and one denied submit (must
# exit 1), scrapes /metrics once (at least one permit and one deny
# decision, no error decision) and stops the daemon with SIGTERM (it
# must exit 0).
#
# Then the cluster roles (docs/CLUSTER.md): a -cluster-publish leader
# serving the VO policy and a -cluster-follow follower with no policy
# flags, both on the same -state. Once the follower's /metrics reads
# cluster_snapshots_applied_total >= 1, one permitted submit (exit 0)
# and one denied submit (exit 1) go to the follower, which decides them
# off the replicated policy under the default staleness bound.
#
# Last, it starts the gatekeeper once more on a config whose line 2
# names the removed "cache" option key: startup must fail (non-zero
# exit, never "listening on") with an error naming line 2 and the key.
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

pids=()
trap 'kill "${pids[@]}" 2> /dev/null || true' EXIT

# start NAME ARGS...: runs the gatekeeper with ARGS in the background,
# logging to $dir/NAME.log, and waits up to 10 s for it to listen.
start() {
    local name=$1
    shift
    "$dir/gatekeeper" -state "$dir/grid" -gridmap "$dir/gridmap" -mode callout \
        -listen 127.0.0.1:0 "$@" 2> "$dir/$name.log" &
    pid=$!
    pids+=("$pid")
    for _ in $(seq 100); do
        grep -q "listening on" "$dir/$name.log" && return 0
        kill -0 "$pid" 2> /dev/null || break
        sleep 0.1
    done
    echo "daemon-smoke: $name did not start listening within 10 s" >&2
    cat "$dir/$name.log" >&2
    exit 1
}

# logged NAME SED-EXPR: the value SED-EXPR extracts from $dir/NAME.log.
logged() { sed -n "$2" "$dir/$1.log"; }
listen_addr() { logged "$1" 's/.*listening on \([^ ]*\) .*/\1/p'; }
metrics_addr() { logged "$1" 's#.*observability on http://\([^ ]*\)/metrics .*#\1#p'; }

# scrape ADDR: saves one /metrics scrape of ADDR; count NAME reads
# NAME's value from it.
scrape() { curl -fsS "http://$1/metrics" > "$dir/metrics.txt"; }
count() { awk -v name="$1" '$1 == name { print $2 }' "$dir/metrics.txt"; }

# submits NAME ADDR: one permitted submit (must exit 0) and one denied
# submit (must exit 1) against the gatekeeper NAME listening on ADDR.
submits() {
    local client=("$dir/gramclient" -state "$dir/grid" -server "$2" -user "/O=Grid/CN=Alice")
    "${client[@]}" submit '&(executable=sim)(count=4)(jobtag=demo)(simduration=120)'
    local rc=0
    "${client[@]}" submit '&(executable=sim)(count=16)(jobtag=demo)' || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "daemon-smoke: denied submit to $1 exited $rc, want 1" >&2
        exit 1
    fi
}

start gatekeeper -callout-config "$dir/callouts.conf" -metrics-addr 127.0.0.1:0
gk=$pid
addr=$(listen_addr gatekeeper)
submits gatekeeper "$addr"

metrics=$(metrics_addr gatekeeper)
scrape "$metrics"
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
if [ "$rc" -ne 0 ]; then
    echo "daemon-smoke: gatekeeper exited $rc after SIGTERM" >&2
    cat "$dir/gatekeeper.log" >&2
    exit 1
fi

start leader -vo-policy "$dir/vo.policy" -cluster-publish 127.0.0.1:0
leader=$pid
publish=$(logged leader 's/.*cluster leader publishing on \([^ ]*\) .*/\1/p')
start follower -cluster-follow "$publish" -metrics-addr 127.0.0.1:0
follower=$pid
follower_metrics=$(metrics_addr follower)
applied=0
for _ in $(seq 100); do # up to 10 s
    scrape "$follower_metrics"
    applied=$(count cluster_snapshots_applied_total)
    [ "${applied:-0}" -ge 1 ] && break
    sleep 0.1
done
if [ "${applied:-0}" -lt 1 ]; then
    echo "daemon-smoke: follower applied no snapshot from $publish within 10 s" >&2
    cat "$dir/follower.log" >&2
    exit 1
fi
submits follower "$(listen_addr follower)"
kill -TERM "$follower" "$leader"
for p in "$follower" "$leader"; do
    rc=0
    wait "$p" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "daemon-smoke: cluster node $p exited $rc after SIGTERM" >&2
        cat "$dir/leader.log" "$dir/follower.log" >&2
        exit 1
    fi
done

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
echo "daemon-smoke: ok ($addr; permit=$permit deny=$deny error=$errors; follower applied $applied snapshot(s); removed key refused)"
