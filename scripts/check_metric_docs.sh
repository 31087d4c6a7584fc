#!/bin/sh
# Checks that OBSERVABILITY.md and the metric registry name the same
# metrics: every metric registered in non-test Go under internal/ and cmd/
# must be named in OBSERVABILITY.md, and every metric name the doc gives
# must be registered. Usage:
#
#   scripts/check_metric_docs.sh     # exit 1 and list the mismatches
#
# Registered names are the string literals passed to obs.NewCounter,
# obs.NewGauge and obs.NewHistogram. A name built from a per-slot prefix,
# p := fmt.Sprintf("cluster.r%d.", i) then obs.NewCounter(p + "routed"),
# is read as the template cluster.r<i>.routed, which is how the doc writes
# it. Documented names are the backquoted tokens of OBSERVABILITY.md whose
# first segment is a registered package prefix; brace forms expand
# (core.detect_{tp,fp,fn} is three names) and family wildcards such as
# rram.* are skipped.
set -eu
cd "$(dirname "$0")/.."

registered=$(mktemp)
documented=$(mktemp)
trap 'rm -f "$registered" "$documented"' EXIT

awk '
    FNR == 1 { delete prefix }
    # A per-slot prefix: v := fmt.Sprintf("lit%dlit", ...).
    match($0, /[A-Za-z_][A-Za-z0-9_]* := fmt\.Sprintf\("[^"]*%d[^"]*"/) {
        s = substr($0, RSTART, RLENGTH)
        v = s; sub(/ :=.*/, "", v)
        t = s; sub(/^[^"]*"/, "", t); sub(/"$/, "", t); sub(/%d/, "<i>", t)
        prefix[v] = t
    }
    {
        line = $0
        while (match(line, /obs\.New(Counter|Gauge|Histogram)\([^)]*\)/)) {
            call = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            arg = call; sub(/^[^(]*\(/, "", arg); sub(/\)$/, "", arg)
            if (arg ~ /^"[^"]*"$/) {
                gsub(/"/, "", arg); print arg
            } else if (arg ~ /^[A-Za-z_][A-Za-z0-9_]* \+ "[^"]*"$/) {
                v = arg; sub(/ .*/, "", v)
                lit = arg; sub(/^[^"]*"/, "", lit); sub(/"$/, "", lit)
                if (v in prefix) print prefix[v] lit
                else print "UNRESOLVED:" FILENAME ": " call
            } else {
                print "UNRESOLVED:" FILENAME ": " call
            }
        }
    }
' $(find internal cmd -name '*.go' ! -name '*_test.go' ! -path 'internal/obs/*') |
    sort -u >"$registered"

if grep -q '^UNRESOLVED:' "$registered"; then
    echo "metric docs lint: cannot read these registrations (use a string literal or a fmt.Sprintf prefix):" >&2
    sed -n 's/^UNRESOLVED://p' "$registered" >&2
    exit 1
fi

prefixes=$(sed 's/\..*//' "$registered" | sort -u | paste -sd '|' -)

grep -o '`[^`]*`' OBSERVABILITY.md | tr -d '`' |
    grep -E "^($prefixes)\.[a-z0-9_.<>{},*]+\$" | grep -v '\*' |
    awk '
        function expand(s,    pre, body, post, n, alts, k) {
            if (!match(s, /\{[^{}]*\}/)) { print s; return }
            pre = substr(s, 1, RSTART - 1)
            body = substr(s, RSTART + 1, RLENGTH - 2)
            post = substr(s, RSTART + RLENGTH)
            n = split(body, alts, ",")
            for (k = 1; k <= n; k++) expand(pre alts[k] post)
        }
        { expand($0) }
    ' | sort -u >"$documented"

undocumented=$(comm -23 "$registered" "$documented")
unregistered=$(comm -13 "$registered" "$documented")
if [ -n "$undocumented" ] || [ -n "$unregistered" ]; then
    if [ -n "$undocumented" ]; then
        echo "metric docs lint: registered but not named in OBSERVABILITY.md:" >&2
        echo "$undocumented" | sed 's/^/  /' >&2
    fi
    if [ -n "$unregistered" ]; then
        echo "metric docs lint: named in OBSERVABILITY.md but not registered:" >&2
        echo "$unregistered" | sed 's/^/  /' >&2
    fi
    exit 1
fi
echo "metric docs lint: $(wc -l <"$registered") metrics, OBSERVABILITY.md and the registry agree"
