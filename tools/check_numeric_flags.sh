#!/bin/sh
# Numeric CLI flags, and the hex signatures the serve supervisor passes its
# workers, are strict: a malformed or out-of-range value is a usage error
# (exit 2) whose message names the flag, and the values the serve
# supervisor and the end-to-end benchmark pass are still accepted.
#
#   tools/check_numeric_flags.sh path/to/hdiff
#
# Every command either has no state to act on (a missing --state-dir or
# corpus) or fails before doing work, so a build that still accepts a bad
# value fails the row quickly instead of running a campaign.
hdiff=${1:?usage: check_numeric_flags.sh path/to/hdiff}
missing=/nonexistent/hdiff-numeric-flags
err=${TMPDIR:-/tmp}/hdiff-numeric-flags.$$
trap 'rm -f "$err"' EXIT
failures=0

# reject FLAG CMD...: CMD must exit 2 and name FLAG on stderr.
reject() {
  flag=$1
  shift
  "$hdiff" "$@" >/dev/null 2>"$err" 3>/dev/null
  rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "$flag" "$err"; then
    echo "FAIL: hdiff $* exited $rc, want 2 naming $flag: $(cat "$err")"
    failures=$((failures + 1))
  fi
}

# accept CMD...: CMD must get past argument parsing (any exit but 2).
accept() {
  "$hdiff" "$@" >/dev/null 2>"$err" 3>/dev/null
  rc=$?
  if [ "$rc" -eq 2 ] || grep -q "wants an integer" "$err"; then
    echo "FAIL: hdiff $* was refused (exit $rc): $(cat "$err")"
    failures=$((failures + 1))
  fi
}

#      flag                command and value
reject --jobs              run --corpus $missing --jobs 0
reject --jobs              run --corpus $missing --jobs 2x
reject --retries           run --corpus $missing --retries 99999999999
reject --case-deadline-ms  run --corpus $missing --case-deadline-ms -1
reject --jobs              stats --jobs abc
reject --jobs              lint --jobs 1x
reject --rounds            campaign status --state-dir $missing --rounds 2x
reject --rounds            campaign status --state-dir $missing --rounds 99999999999999999999
reject --budget            campaign status --state-dir $missing --budget +5
reject --jobs              campaign status --state-dir $missing --jobs 0x1
reject --shards            serve --shards 0
reject --port              serve --port 65536
reject --heartbeat-ms      serve --heartbeat-ms 0
reject --quarantine-after  serve --quarantine-after x
reject --rounds            serve --rounds -1
reject --chaos-kill        serve --chaos-kill 1:x
reject --shard             serve-worker --shard x
reject --round             serve-worker --round 1.5
reject --heartbeat-fd      serve-worker --heartbeat-fd -1
reject --config-sig        serve-worker --config-sig 0123456789ABCDEF
reject --mutation-sig      serve-worker --mutation-sig 0123456789abcde
reject --port              tail --port 70000 --once
reject --interval-ms       tail --interval-ms 5 --port 1 --once

# What the supervisor (std::to_string) and perfbench/bench_e2e.cpp pass.
accept serve-worker --state-dir $missing --shard 3 --shards 8 --round 12 \
       --heartbeat-ms 200 --heartbeat-fd 3 --config-sig 0123456789abcdef \
       --mutation-sig fedcba9876543210 --mini --budget 96 --jobs 1
accept campaign status --state-dir $missing --rounds 100000 --budget 16 --jobs 8
accept run --corpus $missing --jobs 4 --retries 64 --case-deadline-ms 0
accept tail --port 65535 --interval-ms 10 --once

if [ "$failures" -ne 0 ]; then
  echo "$failures numeric-flag check(s) failed"
  exit 1
fi
echo "numeric flags: every malformed value refused, every valid one accepted"
