#!/usr/bin/env bash
# CI crash-resume lane (also runnable locally): SIGKILL the worker
# pool *and* the server mid-campaign, restart on the same database,
# and require the reclaimed job to finish with an export
# byte-identical to a direct sweep of the same spec.
#
# Local use: SERVICE_PORT=8282 REPRO="python -m repro.experiments.runner" \
#            bash scripts/ci_service_crash_resume.sh
set -euo pipefail

REPRO=${REPRO:-gs1280-repro}
PORT="${SERVICE_PORT:-8180}"
URL="http://127.0.0.1:${PORT}"
WORK="${SERVICE_WORKDIR:-.service-crash}"
SPEC="examples/service_crash_probe.json"
rm -rf "$WORK"
mkdir -p "$WORK"

serve() {
  # exec so the backgrounded function's $! is the server pid itself,
  # not a wrapping subshell (the kill -9 must hit the real process).
  exec $REPRO serve --db "$WORK/jobs.db" --cache-dir "$WORK/cache" \
    --results-dir "$WORK/results" --port "$PORT" \
    --workers 1 --lease 2 "$@"
}

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$URL/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "service never became healthy" >&2
  return 1
}

# --- first life: submit, let it get partway, then kill -9 everything.
serve --no-respawn > "$WORK/serve1.log" 2>&1 &
SERVE1=$!
trap 'kill -9 "$SERVE1" 2>/dev/null || true' EXIT
wait_healthy

JOB_ID=$($REPRO submit "$SPEC" --url "$URL" --tenant crash \
  | awk '/^job /{print $2; exit}')
echo "submitted $JOB_ID"

# Block until at least one point is recorded but the job is not done:
# the kill must land mid-campaign or the lane proves nothing.
python - "$URL" "$JOB_ID" <<'EOF'
import sys, time
from repro.service.client import ServiceClient
with ServiceClient(sys.argv[1]) as client:
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        page = client.events(sys.argv[2])
        if page["done"]:
            sys.exit("campaign finished before the kill; probe spec too fast")
        if any(e["kind"] == "point" for e in page["events"]):
            sys.exit(0)
        time.sleep(0.02)
sys.exit("no point event within 120s")
EOF

curl -fsS "$URL/stats" \
  | python -c 'import json,sys
for pid in json.load(sys.stdin)["workers"]["pids"]:
    print(pid)' \
  | xargs -r kill -9
kill -9 "$SERVE1"
wait "$SERVE1" 2>/dev/null || true
echo "killed server + workers mid-campaign"

# --- second life: same database, fresh pool; the dead worker's claim
# must be reclaimed and the job must run to done.
serve > "$WORK/serve2.log" 2>&1 &
SERVE2=$!
trap 'kill -9 "$SERVE2" 2>/dev/null || true' EXIT
wait_healthy

python - "$URL" "$JOB_ID" <<'EOF'
import sys
from repro.service.client import ServiceClient
with ServiceClient(sys.argv[1]) as client:
    final = client.wait(sys.argv[2], timeout_s=300)
    kinds = [e["kind"] for e in client.events(sys.argv[2])["events"]]
assert final["state"] == "done", final
assert final["attempts"] >= 2, final  # the first claim died
assert "reclaimed" in kinds, kinds
print(f"resumed: attempts={final['attempts']} events={kinds}")
EOF

curl -fsS "$URL/jobs/$JOB_ID/result" -o "$WORK/resumed.json"

# The resumed export must match a direct sweep byte for byte.
$REPRO sweep "$SPEC" --cache-dir "$WORK/direct-cache" \
  --export "$WORK/direct.json"
cmp "$WORK/direct.json" "$WORK/resumed.json"

# And the survivor still drains cleanly.
kill -TERM "$SERVE2"
wait "$SERVE2"
trap - EXIT
echo "service-crash-resume: OK"
