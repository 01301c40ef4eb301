"""The README's examples and key lists agree with the code."""

import ast
import contextlib
import io
import re
from pathlib import Path

import qchangepoint
from qchangepoint import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    """The README text from ``heading`` to the next heading of any level."""
    start = README.index(heading + "\n") + len(heading)
    following = re.search(r"^#+ ", README[start:], re.M)
    return README[start:start + following.start()] if following else README[start:]


def test_library_use_snippet_prints_its_commented_values():
    code = re.search(r"```python\n(.*?)```", _section("## Library use"), re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    calls = [line for line in code.splitlines() if line.startswith("print(")]
    outputs = printed.getvalue().splitlines()
    assert len(outputs) == len(calls)
    checked = {}
    for call, output in zip(calls, outputs):
        # a trailing comment ending in a decimal is the value the line prints,
        # to the comment's number of decimals
        expected = re.search(r"#.*?(\d+\.(\d+))\s*$", call)
        if expected:
            value, decimals = expected.groups()
            assert f"{float(output):.{len(decimals)}f}" == value, call
            checked[re.match(r"print\((\w+)", call).group(1)] = value
    assert checked == {"asymptotic_pmax": "0.696602", "basic_local_closed_form": "0.51"}


def test_library_use_names_are_public():
    # the snippet's imports and the list of lower-level pieces name only
    # public names, so a removed or renamed function cannot linger there
    section = _section("## Library use")
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = {alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "qchangepoint"
                for alias in node.names}
    listed = set(re.findall(r"`(\w+)`", re.search(r"pieces\s+\((.*?)\)", section, re.S).group(1)))
    assert imported and listed
    assert sorted((imported | listed) - set(qchangepoint.__all__)) == []


def test_config_files_paragraph_names_every_key():
    paragraph = _section("### Config files")
    missing = [(name, key) for name, spec in cli._SUBCOMMANDS.items()
               for key in spec.keys if f"`{key}`" not in paragraph]
    assert missing == []
