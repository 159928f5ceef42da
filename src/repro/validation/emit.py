"""Freeze a minimized failing trace as a runnable pytest regression file.

The fuzzer's end product should outlive the fuzzing session: once ddmin
has shrunk a violation to a handful of records, this module renders it
as a standalone pytest module that rebuilds the exact config, replays
the trace, and asserts the violation still fires. Dropping the file
into ``tests/`` turns a one-off fuzzing catch into a permanent
regression test.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

_TEMPLATE = '''"""Auto-generated regression fixture ({tag}).

Emitted by `python -m repro validate` after delta-debugging a
content-oracle violation down to {n_records} trace record(s).
Regenerate with: {command}
"""

from math import inf  # CONFIG_KWARGS spells a stability-only k as inf

import pytest

from repro.common.errors import OracleViolation
from repro.validation.content import ContentBackedController, replay
from repro.validation.fuzz import make_tiny_config

TRACE = {trace!r}

CONFIG_KWARGS = {config_kwargs!r}


def test_{tag}():
    config = make_tiny_config(**CONFIG_KWARGS)
    controller = ContentBackedController(
        config, seed={seed}, inject_bug={inject_bug!r}
    )
    with pytest.raises(OracleViolation):
        replay(controller, TRACE)
'''


def emit_fixture(
    path: Path,
    trace: Sequence[Tuple[int, bool]],
    config_kwargs: Dict,
    seed: int,
    inject_bug: Optional[str],
    tag: str = "oracle_violation",
    command: str = "python -m repro validate",
) -> Path:
    """Write the regression module to ``path`` and return it."""
    path = Path(path)
    path.write_text(
        _TEMPLATE.format(
            tag=tag,
            n_records=len(trace),
            command=command,
            trace=[(int(addr), bool(is_write)) for addr, is_write in trace],
            config_kwargs=dict(config_kwargs),
            seed=int(seed),
            inject_bug=inject_bug,
        )
    )
    return path


def run_fixture(path: Path) -> None:
    """Execute an emitted fixture in-process to prove it is runnable.

    Imports nothing into ``sys.modules``; the module body and its single
    test function are executed directly. Raises on any failure.
    """
    source = Path(path).read_text()
    namespace: Dict = {"__name__": f"repro_fixture_{Path(path).stem}"}
    exec(compile(source, str(path), "exec"), namespace)
    tests = [v for k, v in namespace.items() if k.startswith("test_") and callable(v)]
    if not tests:
        raise ValueError(f"emitted fixture {path} defines no test function")
    for test in tests:
        test()
