import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pefkit

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


#: Modules the erase and evaluate paths load and `pefkit generate` must not.
NOT_FOR_GENERATE = ("pefkit.pef", "pefkit.qopt", "pefkit.coupling", "pefkit.evaluate",
                    "numpy.typing")


def run_fresh(script: str, *args: str) -> None:
    """Run ``script`` in a new interpreter that imports pefkit from this tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(pefkit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def generate_argv(out_dir, setting: str = "unequal") -> list[str]:
    return ["generate", "--setting", setting, "--groups", "2", "--support", "5",
            "--samples", "400", "--seed", "1", "--out-dir", str(out_dir)]


def test_generate_loads_no_erasure_module(tmp_path):
    script = (
        "import sys\n"
        "import pefkit.cli\n"
        f"lazy = {NOT_FOR_GENERATE!r}\n"
        "assert not [m for m in lazy if m in sys.modules], 'import'\n"
        "assert pefkit.cli.main(sys.argv[1:]) == 0\n"
        "assert not [m for m in lazy if m in sys.modules], 'generate'\n"
    )
    run_fresh(script, *generate_argv(tmp_path))


# Algorithm 1 (no --dists) is evaluated against the true distributions only
# where it finds them equal; an unequal estimate is not their pushforward.
@pytest.mark.parametrize("setting,dists", [("unequal", True), ("equal_uniform", False)])
def test_erase_and_evaluate_load_every_traced_module(tmp_path, setting, dists):
    # The tracer wraps only modules already loaded when it installs, and a
    # traced run installs it after one erase and one evaluate.
    gen, erase, ev = tmp_path / "gen", tmp_path / "erase", tmp_path / "eval"
    erase_argv = ["erase", "--samples", str(gen / "samples.csv"), "--out-dir", str(erase)]
    if dists:
        erase_argv += ["--dists", str(gen / "true_dists.json")]
    evaluate_argv = ["evaluate", "--dists", str(gen / "true_dists.json"),
                     "--function", str(erase / "function.json"),
                     "--erased", str(erase / "erased.csv"),
                     "--samples", str(gen / "samples.csv"), "--out-dir", str(ev)]
    modules = sorted({f"pefkit.{name.split('.')[0]}" for name in traced_names()})
    script = (
        "import sys\n"
        "import pefkit.cli\n"
        f"for argv in {[generate_argv(gen, setting), erase_argv, evaluate_argv]!r}:\n"
        "    assert pefkit.cli.main(argv) == 0, argv\n"
        f"missing = [m for m in {modules!r} if m not in sys.modules]\n"
        "assert not missing, missing\n"
    )
    run_fresh(script)


def test_package_names_are_their_defining_modules_objects():
    for name in pefkit.__all__:
        value = getattr(pefkit, name)
        assert value.__module__.startswith("pefkit."), name
        assert value is getattr(sys.modules[value.__module__], name), name


def test_package_surface():
    assert set(pefkit.__all__) <= set(dir(pefkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        pefkit.no_such_name
    namespace: dict = {}
    exec("from pefkit import *", namespace)
    assert set(pefkit.__all__) <= set(namespace)


def test_bare_import_loads_no_submodule_and_resolves_them():
    run_fresh(
        "import sys\n"
        "import pefkit\n"
        "assert not [m for m in sys.modules if m.startswith('pefkit.')]\n"
        "assert callable(pefkit.qopt.select_q)\n"
        "assert 'pefkit.qopt' in sys.modules\n"
    )
