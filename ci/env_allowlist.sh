#!/usr/bin/env bash
# Lists every environment variable the shipped code reads
# (`env::var("NAME")` / `env::var_os("NAME")` under crates/ and src/) and
# fails on any name outside the allowlist, so a removed runtime switch
# cannot come back unnoticed. A read whose argument is not a string
# literal on the same line fails too: its name cannot be checked.
#
# Usage: ci/env_allowlist.sh   (from anywhere; exits 1 on a violation)
set -euo pipefail
cd "$(dirname "$0")/.."

allow='^(FIS_THREADS|FIS_LOG|FIS_SCALE|CRITERION_QUICK|CRITERION_JSON)$'
reads=$(grep -rnoE --include='*.rs' 'env::var(_os)?\([^)]*\)?' crates src || true)
status=0
while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    loc=${hit%%:env::*}
    call=${hit#"$loc":}
    name=$(sed -nE 's/^env::var(_os)?\("([A-Za-z0-9_]+)"\)$/\2/p' <<<"$call")
    if [ -z "$name" ]; then
        echo "$loc: \`$call\` does not name a string literal" >&2
        status=1
    elif [[ $name =~ $allow ]]; then
        echo "$loc: $name"
    else
        echo "$loc: $name is not on the allowlist" >&2
        status=1
    fi
done <<<"$reads"
exit "$status"
