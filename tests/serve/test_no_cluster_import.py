"""Guard: no serve module imports :mod:`repro.cluster`.

The cluster is built *on* the serving engine — each shard is a
:class:`~repro.serve.StreamingEngine` — so the dependency points one
way.  The apply kernel lives inside
:class:`~repro.serve.incremental.IncrementalClassifier`; a serve module
reaching back into ``repro.cluster`` would reopen a cluster-only seam
for a second apply path.  Checked statically on the source, so lazy
imports inside functions count too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.serve

SERVE_DIR = Path(repro.serve.__file__).parent


def _cluster_imports(source: str) -> list[int]:
    """Line numbers of imports of ``repro.cluster`` (or a submodule)."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "repro.cluster" or name.startswith("repro.cluster.") for name in names):
            offenders.append(node.lineno)
    return offenders


def test_serve_modules_never_import_cluster():
    checked = 0
    for path in sorted(SERVE_DIR.glob("*.py")):
        offenders = _cluster_imports(path.read_text(encoding="utf-8"))
        assert not offenders, (
            f"{path.name} imports repro.cluster at lines {offenders}; "
            "the serve layer must not depend on the cluster built on top of it"
        )
        checked += 1
    assert checked >= 8  # all serve modules were actually scanned


def test_guard_catches_offenders():
    assert _cluster_imports("import repro.cluster\n") == [1]
    assert _cluster_imports("import repro.cluster.worker as w\n") == [1]
    assert _cluster_imports("from repro.cluster.ring import HashRing\n") == [1]
    assert _cluster_imports("from repro import cluster\n") == [1]
    assert _cluster_imports("def f():\n    from repro.cluster import ShardWorker\n") == [2]
    assert _cluster_imports("from repro.serve.engine import StreamingEngine\n") == []
    assert _cluster_imports("from repro.clusters import x\n") == []
