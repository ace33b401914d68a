"""The file layer stays in two modules: JSON files and CSV tables in
``dist``, sample-pair CSVs in ``sample_io``. Every other module reads and
writes files through them, so each format is spelled in one place."""

from pathlib import Path

import pefkit

FILE_MODULES = {"dist.py", "sample_io.py"}


def test_only_the_file_modules_open_files():
    src = Path(pefkit.__file__).parent
    opening = {p.name for p in src.glob("*.py") if "open(" in p.read_text()}
    assert opening == FILE_MODULES
