"""Entry point of the search filter; the implementation is ``kernels_py``.

There is one implementation, in Python integers.  ``available_lanes`` and the
``lane`` argument of ``run_filter`` remain only for the benchmark harness,
which names them; ``"python"`` is the only lane.
"""

from __future__ import annotations

from . import kernels_py


def available_lanes():
    return ("python",)


def run_filter(basis_flat, n, bound, budget, max_hits=1, lane="python"):
    """See ``kernels_py.run_filter``; any ``lane`` but ``"python"`` is a ValueError."""
    if lane != "python":
        raise ValueError(f"unknown lane {lane!r}")
    return kernels_py.run_filter(basis_flat, n, bound, budget, max_hits)
