import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# A per-layer metric named `<module>.<attr...>.<stat>` with one of these
# stats times the function `pefkit.<module>.<attr...>` (perfbench/run.py).
SPAN_STATS = ("s", "self_s", "calls")


def traced_names() -> list[str]:
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted({n.rsplit(".", 1)[0] for n in names if n.rsplit(".", 1)[1] in SPAN_STATS})


def test_benchmark_traces_some_names():
    assert traced_names()


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    module, *path = name.split(".")
    owner = importlib.import_module(f"pefkit.{module}")
    for attr in path:
        assert hasattr(owner, attr), f"pefkit.{name} does not resolve"
        owner = getattr(owner, attr)
    assert callable(owner)
