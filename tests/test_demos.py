"""The demos are run by no test, so guard what they lean on: each compiles,
and every ``cm.<name>`` it uses is a public name of curvemark."""

import ast
import pathlib

import pytest

import curvemark as cm

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_compiles_and_uses_public_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    compile(tree, str(path), "exec")
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cm"}
    assert used, "the demo should use curvemark as cm"
    assert not used - set(cm.__all__), sorted(used - set(cm.__all__))
