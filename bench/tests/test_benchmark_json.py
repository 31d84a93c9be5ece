import json
import re
from pathlib import Path

from layers import PER_LAYER
from run import END_TO_END_UNITS
from workloads import WORKLOADS

DOC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_lists_match_the_benchmark_code():
    assert [w["name"] for w in DOC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in DOC["end_to_end"]} == END_TO_END_UNITS
    assert DOC["per_layer"] == [
        {"name": l.name, "unit": l.unit, "better": l.better} for l in PER_LAYER
    ]


def test_schema_limits():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in DOC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in DOC["workloads"])
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(m["better"] in ("lower", "higher")
               for key in ("end_to_end", "per_layer") for m in DOC[key])
    assert 1 <= DOC["run_seconds"] <= 60
