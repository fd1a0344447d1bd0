"""Offline grid precompilation: fill the plan registry before serving.

``repro-mechanisms warm --cache-dir DIR --grid n=... alpha=... props=...``
solves every design point of a grid and stores the results in the
directory's :class:`~repro.serving.registry.PlanRegistry`, so a freshly
started daemon (or any later process pointed at the same ``--cache-dir``)
serves the whole grid with **zero LP solves**.

The grid fans out process-parallel with the same worker discipline as the
figure sweeps: one task per grid point, each a cold design.  Workers return
plain entry dicts; the parent process is the registry's single writer.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.losses import Objective
from repro.serving.cache import design_key, design_row
from repro.serving.registry import PlanRegistry


class GridError(ValueError):
    """A ``--grid`` specification that cannot be parsed."""


def parse_grid(tokens: Sequence[str]) -> Dict[str, List[Any]]:
    """Parse ``--grid`` tokens (``key=v1,v2,...``) into axis lists.

    Recognised axes: ``n`` (ints), ``alpha`` (floats), ``props`` (property
    strings such as ``WH+CM``; ``none`` for the unconstrained LP).

    >>> parse_grid(["n=8,16", "alpha=0.9,0.95", "props=WH+CM"])
    {'n': [8, 16], 'alpha': [0.9, 0.95], 'props': ['WH+CM']}
    """
    axes: Dict[str, List[Any]] = {}
    for token in tokens:
        name, sep, value = token.partition("=")
        if not sep or not value:
            raise GridError(f"grid token {token!r} is not of the form key=v1,v2,...")
        values = [item for item in value.split(",") if item]
        if name == "n":
            try:
                axes["n"] = [int(item) for item in values]
            except ValueError as exc:
                raise GridError(f"grid axis n: {exc}") from None
        elif name == "alpha":
            try:
                axes["alpha"] = [float(item) for item in values]
            except ValueError as exc:
                raise GridError(f"grid axis alpha: {exc}") from None
        elif name == "props":
            axes["props"] = values
        else:
            raise GridError(f"unknown grid axis {name!r} (expected n, alpha or props)")
    for required in ("n", "alpha"):
        if required not in axes:
            raise GridError(f"grid is missing the {required}= axis")
    axes.setdefault("props", ["WH+CM"])
    return axes


def _design_point_task(task: Tuple[int, float, Optional[str], Optional[Objective]]) -> Dict[str, Any]:
    """Design one grid point and return its registry row.

    Module-level so :func:`warm_grid` tasks can pickle.
    """
    from repro.core.selector import choose_mechanism

    n, alpha, props, objective = task
    mechanism, decision = choose_mechanism(n, alpha, properties=props, objective=objective)
    return design_row(design_key(n, alpha, props, objective), mechanism, decision)


def warm_grid(
    directory: Union[str, Any],
    ns: Iterable[int],
    alphas: Iterable[float],
    props_list: Iterable[str] = ("WH+CM",),
    objective: Optional[Objective] = None,
    max_workers: Optional[int] = None,
) -> Dict[str, Any]:
    """Precompile a design grid into ``directory``'s plan registry.

    Points already present in the registry are skipped (warming is
    idempotent and incremental).  With ``max_workers`` unset or <= 1 every
    point solves in-process; otherwise the points fan out across worker
    processes.  Returns a summary dict: total grid points, how many were
    solved vs already present, and the wall time.
    """
    points = [
        (n, alpha, None if props == "none" else props, objective)
        for n in sorted({int(n) for n in ns})
        for props in dict.fromkeys(props_list)
        for alpha in sorted({float(a) for a in alphas})
    ]
    started = time.perf_counter()
    with PlanRegistry(directory) as registry:
        tasks = [point for point in points if design_key(*point) not in registry]
        if max_workers is None or int(max_workers) <= 1 or len(tasks) <= 1:
            entries = [_design_point_task(task) for task in tasks]
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=int(max_workers)) as pool:
                entries = list(pool.map(_design_point_task, tasks))
        for entry in entries:
            registry.put(entry["key"], entry)
        stored = len(registry)
    return {
        "grid_points": len(points),
        "solved": len(entries),
        "skipped": len(points) - len(tasks),
        "registry_entries": stored,
        "seconds": time.perf_counter() - started,
    }
