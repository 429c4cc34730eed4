"""The CI workflow names files and benchmark workloads that exist.

The workflow is read as text, since PyYAML is not a test dependency: each
`run:` value is its line, or the block of deeper-indented lines under a `|`
or `>` marker.
"""

import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "tier1.yml"


def run_steps() -> list[str]:
    """The text of every `run:` value of the workflow."""
    steps, lines = [], WORKFLOW.read_text().splitlines()
    for i, line in enumerate(lines):
        match = re.match(r"(\s*)(?:- )?run: ?(.*)$", line)
        if match is None:
            continue
        indent, value = len(match[1]), match[2]
        if value.startswith(("|", ">")):
            body = []
            for following in lines[i + 1:]:
                if following.strip() and len(following) - len(following.lstrip()) <= indent:
                    break
                body.append(following)
            value = "\n".join(body)
        steps.append(value)
    return steps


def test_every_file_a_run_step_names_exists():
    named = set()
    for step in run_steps():
        # the scenario script runs from other directories through the checkout's path
        step = step.replace('"$GITHUB_WORKSPACE/', "")
        named |= set(re.findall(r"(?<![\w$/.-])((?:[\w.-]+/)+[\w.-]+\.py)\b", step))
    # the reader finds the files of single-line, "|" and ">-" steps alike
    assert {
        "perfbench/run.py", "tests/work_precision.py", "tests/digests.py",
        "scripts/run_all_scenarios.py", "tests/test_batch.py", "tests/test_velocity.py",
        "tests/test_wavefunction.py", "tests/test_fourslit.py", "tests/test_sampling.py",
    } <= named
    assert sorted(path for path in named if not (REPO / path).is_file()) == []


def test_every_workload_a_run_step_names_is_a_benchmark_workload():
    workloads = {w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]}
    named = set()
    for step in run_steps():
        loops = dict(re.findall(r"for (\w+) in ([^;]+);", step))
        for value in re.findall(r"--workload\s+(\S+)", step):
            variable = re.fullmatch(r'"?\$\{?(\w+)\}?"?', value)
            named |= set(loops[variable[1]].split()) if variable else {value}
    assert named and sorted(named - workloads) == []
