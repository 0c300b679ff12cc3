"""The README stays importable: every import line of its Python examples
runs, and every name the package exports resolves."""

import re
from pathlib import Path

import bookvol

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_python_imports_run():
    blocks = _python_blocks()
    assert blocks
    for block in blocks:
        imports = [line for line in block.splitlines()
                   if re.match(r"(import|from)\s", line)]
        assert imports
        exec(compile("\n".join(imports), str(README), "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in bookvol.__all__ if not hasattr(bookvol, name)]
    assert missing == []
