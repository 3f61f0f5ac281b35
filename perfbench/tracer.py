"""In-memory span recorder and the wrappers it installs around public names.

A span is one call into a layer: a name, a start and end time from
`time.perf_counter`, the id of the span that caused it, a work count `n`
(points evaluated, where the wrapped function takes an array) and an `info`
dict read from the result.  Spans stay in memory until the process writes
them out with `Tracer.dump`.

Worker threads have no open span of their own, so a span opened on one takes
as its parent the innermost span open on the main thread: the `render` call
that is waiting for the worker.
"""
from __future__ import annotations

import itertools
import threading
import time

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else 0

    def call(self, name: str, fn, args, kwargs, n: int = 0, info=None):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        self.spans.append((sid, name, start, end, parent, n, info(result) if info else None))
        return result

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        return self.call(name, fn, args, kwargs)

    def wrap(self, module, attr: str, name: str, size_arg: int | None = None, info=None) -> None:
        """Replace module.attr by a wrapper that records one span per call.

        `size_arg` names the positional argument whose element count is the
        span's work count; `info` maps the result to a dict kept on the span.
        """
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            n = int(np.size(args[size_arg])) if size_arg is not None else 0
            return self.call(name, fn, args, kwargs, n, info)

        setattr(module, attr, wrapper)

    def dump(self) -> list[list]:
        return [list(s) for s in self.spans]


def _raster_info(raster) -> dict:
    from speiserdim.dynamics import CODE_JULIA, CODE_UNDETERMINED

    codes = raster.codes
    return {
        "pixels": int(codes.size),
        "attracted": int((codes >= 0).sum()),
        "julia": int((codes == CODE_JULIA).sum()),
        "undetermined": int((codes == CODE_UNDETERMINED).sum()),
    }


def _branch_info(branch_set) -> dict:
    return {"accepted": len(branch_set.branches), "rejected": len(branch_set.rejected)}


def install(tracer: Tracer) -> None:
    """Wrap the public names the CLI calls into each layer.

    The wrappers go where the caller looks the name up: `cli` for the calls the
    subcommands make, `dynamics` for the orbit loop's map evaluations and
    `dimension` for the evaluations made while inverting branches.
    """
    from speiserdim import cli, dimension, dynamics

    tracer.wrap(cli, "render", "dynamics.render", info=_raster_info)
    tracer.wrap(cli, "find_attracting_fixed_point", "dynamics.find_attracting_fixed_point")
    tracer.wrap(cli, "box_counting", "dimension.box_counting")
    tracer.wrap(cli, "estimate_branch_contractions", "dimension.estimate_branch_contractions",
                info=_branch_info)
    tracer.wrap(cli, "solve_bowen", "dimension.solve_bowen")
    tracer.wrap(cli, "enumerate_poles", "families.enumerate_poles")
    tracer.wrap(cli, "series_exponent", "dimension.series_exponent")
    tracer.wrap(dynamics, "eval_family_array", "dynamics.eval_family_array", size_arg=1)
    tracer.wrap(dimension, "eval_family_array", "dimension.eval_family_array", size_arg=1)
    tracer.wrap(dimension, "eval_deriv_array", "dimension.eval_deriv_array", size_arg=1)
