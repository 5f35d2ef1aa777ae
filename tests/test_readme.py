"""The README's Python snippets run as written: every fenced ``python``
block, in order, in one namespace."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks():
    with open(README) as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)


def test_readme_snippets_run(capsys):
    blocks = python_blocks()
    assert len(blocks) >= 3
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert capsys.readouterr().out
