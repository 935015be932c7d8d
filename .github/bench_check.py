"""Checks a perfbench run's output, read from standard input.

Usage: python3 .github/bench_check.py FINGERPRINT < bench.out

The last line must be the result object with "correct": true, and every
pass line must end in the given exploration fingerprint. A fingerprint
moves only when exploration itself changes, so only a change meant to
move it updates the value pinned in ci.yml.

On a traced run (--trace 1), every scenario must restore the checkpoint
of its last crash and run only its last execution: the guest runs before
and after a failure, workloads.runs_pre + workloads.runs_post, must equal
core.scenarios. A checkpoint change that fell back to replaying prefixes
would keep every fingerprint, and fails here.
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
metrics = result["metrics"]
if "core.scenarios" in metrics:
    runs = metrics["workloads.runs_pre"]["value"] + metrics["workloads.runs_post"]["value"]
    scenarios = metrics["core.scenarios"]["value"]
    assert runs == scenarios, f"{runs} guest runs for {scenarios} scenarios"
    print(f"{len(passes)} passes, {want}, correct, {runs:.0f} runs for {scenarios:.0f} scenarios")
else:
    print(f"{len(passes)} passes, {want}, correct")
