"""Every configuration field is read somewhere in ``src/``.

A knob that nothing reads still looks settable: it is validated, it
changes the config fingerprint, and a sweep over it reports numbers that
do not depend on it. This test parses the dataclasses of
``repro/common/config.py`` and requires, for each field, an attribute
read of its name (``<expr>.<field>`` in a load context) in some module
under ``src/``.

* Reads inside a ``__post_init__`` validator do not count: validating a
  value is not using it. Reads inside the config classes' other methods
  (``fast_cycles_per_byte``, ``miss_counter_max`` and the like) do,
  since those derive what the rest of the code reads.
* The check is by name, not by class: a read of ``x.ways`` satisfies
  every class with a ``ways`` field. So the names that several classes
  share (``ways``, ``size_bytes``, ``latency_cycles``, ``enabled``) are
  checked by name only, and one class's reads cover the others.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Set

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIG = SRC / "repro" / "common" / "config.py"


def config_fields(tree: ast.Module) -> Dict[str, List[str]]:
    """``{field name: [owning dataclass, ...]}`` of a parsed module."""
    fields: Dict[str, List[str]] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or not any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields.setdefault(stmt.target.id, []).append(node.name)
    return fields


def attribute_reads(tree: ast.Module) -> Set[str]:
    """Names read as attributes in ``tree``, outside ``__post_init__``."""
    validators = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        for inner in ast.walk(node)
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in validators
    }


def unread_fields(config_source: str, sources: Iterable[str]) -> Dict[str, List[str]]:
    config_tree = ast.parse(config_source)
    reads = attribute_reads(config_tree)
    for source in sources:
        reads |= attribute_reads(ast.parse(source))
    return {
        name: owners
        for name, owners in config_fields(config_tree).items()
        if name not in reads
    }


def test_every_config_field_is_read():
    others = [p.read_text() for p in SRC.rglob("*.py") if p != CONFIG]
    unread = unread_fields(CONFIG.read_text(), others)
    assert not unread, f"config fields nothing in src/ reads: {unread}"


def test_a_field_only_validated_counts_as_unread():
    config_source = '''
from dataclasses import dataclass

@dataclass(frozen=True)
class Knobs:
    used: int = 1
    validated: int = 2

    def __post_init__(self):
        assert self.validated > 0

    def derived(self):
        return self.used * 2
'''
    assert unread_fields(config_source, []) == {"validated": ["Knobs"]}
    assert unread_fields(config_source, ["print(cfg.validated)"]) == {}


def test_an_attribute_store_is_not_a_read():
    config_source = '''
from dataclasses import dataclass

@dataclass
class Knobs:
    written: int = 1
'''
    assert unread_fields(config_source, ["cfg.written = 2"]) == {"written": ["Knobs"]}
    assert unread_fields(config_source, ["cfg.written += 2"]) == {"written": ["Knobs"]}


def test_a_shared_field_name_is_checked_by_name():
    config_source = '''
from dataclasses import dataclass

@dataclass
class A:
    ways: int = 4

@dataclass
class B:
    ways: int = 8
'''
    assert unread_fields(config_source, []) == {"ways": ["A", "B"]}
    assert unread_fields(config_source, ["print(a.ways)"]) == {}
