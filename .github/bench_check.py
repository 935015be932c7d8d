"""Checks a perfbench run's output, read from standard input.

Usage: python3 .github/bench_check.py FINGERPRINT [NAME=VALUE ...] < bench.out

The last line must be the result object with "correct": true, and every
pass line must end in the given exploration fingerprint. A fingerprint
moves only when exploration itself changes, so only a change meant to
move it updates the value pinned in ci.yml.

On a traced run (--trace 1), every scenario must restore the checkpoint
of its last crash and run only its last execution: the guest runs before
and after a failure, workloads.runs_pre + workloads.runs_post, must equal
core.scenarios. A checkpoint change that fell back to replaying prefixes
would keep every fingerprint, and fails here.

Each NAME=VALUE after the fingerprint pins a traced count: the run must
be traced, and its metric NAME must equal VALUE exactly. Exploration
counts such as rf.load_calls or core.scenarios are the same on every
host, so a change that claims to explore as before pins them here, and
only a change meant to move exploration updates the values in ci.yml.
"""

import json
import sys

pinned = dict(arg.split("=", 1) for arg in sys.argv[2:])
lines = sys.stdin.read().splitlines()
result = json.loads(lines[-1])
assert result["correct"] is True, result
passes = [line for line in lines if line.startswith("pass ")]
want = "fingerprint " + sys.argv[1]
assert passes, "no pass lines"
for line in passes:
    assert line.endswith(want), f"expected {want}: {line}"
metrics = result["metrics"]
assert not pinned or "core.scenarios" in metrics, "pinned counts need a traced run"
for name, value in pinned.items():
    got = metrics[name]["value"]
    assert got == float(value), f"{name} is {got:.0f}, pinned at {value}"
if "core.scenarios" in metrics:
    runs = metrics["workloads.runs_pre"]["value"] + metrics["workloads.runs_post"]["value"]
    scenarios = metrics["core.scenarios"]["value"]
    assert runs == scenarios, f"{runs} guest runs for {scenarios} scenarios"
    print(
        f"{len(passes)} passes, {want}, correct, {runs:.0f} runs for {scenarios:.0f} scenarios,"
        f" {len(pinned)} pinned counts"
    )
else:
    print(f"{len(passes)} passes, {want}, correct")
