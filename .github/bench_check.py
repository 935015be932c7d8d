"""Checks a perfbench run's output, read from standard input.

Usage: python3 .github/bench_check.py FINGERPRINT < bench.out

The last line must be the result object with "correct": true, and every
pass line must end in the given exploration fingerprint. A fingerprint
moves only when exploration itself changes, so only a change meant to
move it updates the value pinned in ci.yml.
"""

import json
import sys

lines = sys.stdin.read().splitlines()
result = json.loads(lines[-1])
assert result["correct"] is True, result
passes = [line for line in lines if line.startswith("pass ")]
want = "fingerprint " + sys.argv[1]
assert passes, "no pass lines"
for line in passes:
    assert line.endswith(want), f"expected {want}: {line}"
print(f"{len(passes)} passes, {want}, correct")
