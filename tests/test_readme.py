import json
import re
import shlex
from pathlib import Path

from pefkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_usage_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README has no python example"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


def test_cli_example_runs(tmp_path, monkeypatch):
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    assert commands, "README has no CLI example"
    monkeypatch.chdir(tmp_path)
    # The `mec` line reads two distributions from the working directory.
    for name, dist in (("p.json", {"support": [0, 1, 2], "probs": [0.5, 0.3, 0.2]}),
                       ("q.json", {"support": [0, 1], "probs": [0.6, 0.4]})):
        Path(name).write_text(json.dumps(dist))
    for command in commands:
        program, *argv = shlex.split(command)
        assert program == "pefkit"
        assert main(argv) == 0, command
