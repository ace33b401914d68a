import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_usage_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README has no python example"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
