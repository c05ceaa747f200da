"""The event taxonomy is declared once (``EVENT_TYPES``) and every emit
site, guard and doc table agrees with it.

A guard naming a different type than its ``emit`` publishes would starve
a subscriber to that type without any error, so this reads the source
with :mod:`ast` instead of trusting a run to cover every site.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.obs.events import EVENT_TYPES

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "observability.md"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _counter_prefixes() -> set[str]:
    """Every ``_counter_prefix = "..."`` class attribute: what ``{pfx}``
    expands to at the LAMM/RAM emit sites."""
    out = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_counter_prefix" for t in node.targets)
                and isinstance(node.value, ast.Constant)
            ):
                out.add(node.value.value)
    return out


PREFIXES = _counter_prefixes()


def _expand(node) -> set[str]:
    """The event types a literal or ``f"{pfx}_..."`` type argument names."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.JoinedStr):
        parts = node.values
        if (
            len(parts) == 2
            and isinstance(parts[0], ast.FormattedValue)
            and isinstance(parts[0].value, ast.Name)
            and parts[0].value.id == "pfx"
            and isinstance(parts[1], ast.Constant)
        ):
            return {p + parts[1].value for p in PREFIXES}
    raise AssertionError(f"unrecognised event type expression: {ast.dump(node)}")


def _is_bus(node) -> bool:
    """``obs``, ``self._obs``, ``self.env.obs``: an expression for the bus."""
    if isinstance(node, ast.Name):
        return node.id == "obs"
    return isinstance(node, ast.Attribute) and node.attr in ("obs", "_obs")


def _guard_type(test):
    """The type argument a guard tests (``obs.frame_rx`` or
    ``getattr(obs, f"...")``), or None if *test* is no bus guard."""
    if isinstance(test, ast.Attribute) and _is_bus(test.value):
        return ast.Constant(test.attr)
    if (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Name)
        and test.func.id == "getattr"
        and len(test.args) == 2
        and _is_bus(test.args[0])
    ):
        return test.args[1]
    return None


def _emit_sites():
    """``(where, emit type node, guard type node or None)`` per emit call,
    the guard being the innermost enclosing ``if`` on the bus."""
    sites = []
    for path, tree in _modules():
        parents = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and _is_bus(node.func.value)
            ):
                continue
            guard = None
            up = parents.get(node)
            while up is not None:
                if isinstance(up, ast.If) and (guard := _guard_type(up.test)) is not None:
                    break
                up = parents.get(up)
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            sites.append((where, node.args[0], guard))
    return sites


SITES = _emit_sites()


def test_sites_found():
    assert len(SITES) >= 26
    assert {"lamm", "ram"} <= PREFIXES


@pytest.mark.parametrize("where,etype,guard", SITES, ids=[s[0] for s in SITES])
def test_emit_site_type_is_declared_and_guarded_by_itself(where, etype, guard):
    types = _expand(etype)
    assert types <= set(EVENT_TYPES), f"{where}: {sorted(types - set(EVENT_TYPES))}"
    assert guard is not None, f"{where}: emit is not guarded by its event type"
    assert ast.dump(guard) == ast.dump(etype), (
        f"{where}: guard tests {ast.unparse(guard)}, emit publishes {ast.unparse(etype)}"
    )


def test_every_declared_type_is_emitted():
    emitted = set().union(*(_expand(etype) for _, etype, _ in SITES))
    assert emitted == set(EVENT_TYPES)


def _doc_types() -> list[str]:
    text = DOC.read_text()
    section = text.split("### Event taxonomy", 1)[1].split("\n## ", 1)[0]
    out = []
    for line in section.splitlines():
        if line.startswith("| `"):
            first_cell = line.split("|")[1]
            out += re.findall(r"`([a-z_]+)`", first_cell)
    return out


def test_doc_tables_list_exactly_the_declared_types():
    assert _doc_types() == list(EVENT_TYPES)
