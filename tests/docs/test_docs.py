"""The docs gate: every relative link resolves, every ``>>>`` snippet runs.

Two failure modes documentation rots through, both caught here:

* a file moves or a section is renamed and a ``[text](target)`` link in
  ``README.md`` / ``docs/*.md`` now points at nothing;
* an API drifts and a quickstart snippet silently stops being true.

Convention: fenced ```` ```python ```` blocks that contain doctest prompts
(``>>>``) are executed with :mod:`doctest` — write runnable snippets in
that style. Prompt-less blocks are illustrative and only parse-checked for
balance (they may reference placeholder hosts, shell output, etc.).
"""

from __future__ import annotations

import doctest
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
DOC_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("*.md")],
    key=lambda p: p.as_posix(),
)

_FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)
#: Inline markdown links — [text](target). Skips images and autolinks.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def _doc_ids(paths):
    return [path.relative_to(REPO).as_posix() for path in paths]


def test_docs_tree_exists():
    expected = {"architecture.md", "beliefsql.md", "wire-protocol.md",
                "operations.md"}
    present = {path.name for path in (REPO / "docs").glob("*.md")}
    assert expected <= present, f"missing docs pages: {expected - present}"


@pytest.mark.parametrize("path", DOC_FILES, ids=_doc_ids(DOC_FILES))
def test_relative_links_resolve(path):
    text = path.read_text()
    broken = []
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
            continue
        if target.startswith("#"):  # intra-page anchor
            continue
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{path.name}: broken relative links {broken}"


def _doctest_snippets():
    cases = []
    for path in DOC_FILES:
        for index, match in enumerate(_FENCE_RE.finditer(path.read_text())):
            block = match.group(1)
            if ">>>" in block:
                cases.append(pytest.param(
                    path, block,
                    id=f"{path.relative_to(REPO).as_posix()}#{index}",
                ))
    return cases


_SNIPPETS = _doctest_snippets()


def test_doctest_snippets_are_present():
    """The README's executemany and async-client quickstarts (at least)
    must stay doctest-checked — if this count drops, a runnable snippet
    was rewritten into an unchecked one."""
    readme = [case for case in _SNIPPETS
              if case.id.startswith("README.md")]
    assert len(readme) >= 2


@pytest.mark.parametrize("path,block", _SNIPPETS)
def test_doctest_snippet_runs(path, block):
    parser = doctest.DocTestParser()
    test = parser.get_doctest(
        block, globs={}, name=path.name, filename=str(path), lineno=0
    )
    runner = doctest.DocTestRunner(
        verbose=False, optionflags=doctest.ELLIPSIS
    )
    output: list[str] = []
    runner.run(test, out=output.append)
    assert runner.failures == 0, (
        "doctest snippet failed:\n" + "".join(output)
    )


@pytest.mark.parametrize("path", DOC_FILES, ids=_doc_ids(DOC_FILES))
def test_plain_python_fences_are_balanced(path):
    """Prompt-less snippets at least tokenize as Python-looking text:
    every fence opened is closed (an unterminated fence swallows the rest
    of the page in most renderers)."""
    text = path.read_text()
    assert text.count("```") % 2 == 0, f"{path.name}: unbalanced code fence"


# ------------------------------------------- wire-protocol.md vs the op table


def _table_after(text: str, header: str) -> list[list[str]]:
    """Cells of every body row of the markdown table whose header row
    starts with ``header``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:  # skip the |---| separator
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _ticked(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def test_wire_protocol_operations_table_matches_the_op_table():
    from repro.server.protocol import OPS

    text = (REPO / "docs" / "wire-protocol.md").read_text()
    documented = {}
    for op, lock, in_txn, route, _ in _table_after(text, "| op | lock |"):
        documented[_ticked(op)[0]] = (lock, in_txn, route)
    expected = {
        name: (spec.lock or "—", "yes" if spec.in_txn else "no", spec.route)
        for name, spec in OPS.items()
    }
    assert documented == expected


def test_wire_protocol_op_code_table_matches_the_op_table():
    from repro.server.protocol import OP_TABLE

    text = (REPO / "docs" / "wire-protocol.md").read_text()
    documented = []
    for code, op, layout in _table_after(text, "| code | op |"):
        documented.append((
            int(_ticked(code)[0], 16) if _ticked(code) else None,
            _ticked(op)[0],
            tuple(_ticked(layout)),
            "JSON escape" in op,
        ))
    expected = [
        (spec.code, spec.name, spec.layout if spec.code is not None else (),
         spec.json_escape)
        for spec in OP_TABLE
    ]
    assert sorted(documented, key=str) == sorted(expected, key=str)
