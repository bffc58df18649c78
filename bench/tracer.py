"""Traced run of one levitomo CLI invocation, and the per-layer summary of its spans.

As a script::

    python3 bench/tracer.py SPANS_JSON -- CLI_ARGS...

imports ``levitomo.cli``, wraps the public functions of every layer module
(plus the CLI's CSV/JSON writers and its SHA-256 helper), rebinds every name
the package bound to them at import time (``cli.derive`` and the like), runs
``levitomo.cli.main(CLI_ARGS)`` in this process and writes the spans to
SPANS_JSON when it ends. The exit code is ``main``'s.

Spans are kept in memory while the program runs. Each holds its name
(``<layer>.<function>``), start and end (``time.perf_counter``), the index of
its parent span, and any counts the probe for that function took from the
call's arguments and result once the clock had stopped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("physics", "dynamics", "detection", "spectral", "tomography", "cli")
CLI_HELPERS = ("_sha256", "_columns_csv", "_write_json")


def _path_arg(args, kwargs, position: int) -> Path:
    return Path(kwargs["path"] if "path" in kwargs else args[position])


def _size(path) -> int:
    return Path(path).stat().st_size


def _saved_bytes(args, kwargs, result):
    written = _size(_path_arg(args, kwargs, 1))
    if isinstance(result, Path):  # the JSON sidecar
        written += _size(result)
    return {"bytes": written}


def _bin_counts(args, kwargs, result):
    samples = len((kwargs.get("samples") or args[0]).z_m)
    return {"samples": samples, "dropped": samples - int(result.counts_per_bin.sum())}


PROBES = {
    "dynamics.simulate_thermal": lambda a, k, r: {
        "samples": len(r.z_m) + int(r.meta.get("burn_in_samples", 0))
    },
    "dynamics.save_trajectory": _saved_bytes,
    "detection.save_count_record": _saved_bytes,
    "tomography.save_marginals": _saved_bytes,
    "tomography.save_wigner": _saved_bytes,
    "tomography.save_report": _saved_bytes,
    "tomography.bin_marginals": _bin_counts,
    "tomography.inverse_radon": lambda a, k, r: {"points": len(a[0].angles_rad) * r.values.size},
    "cli._sha256": lambda a, k, r: {"bytes": _size(a[0])},
}


class Recorder:
    """Collects one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span.update(probe(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's functions and rebind all package names bound to them."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"levitomo.{layer}")
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") or (layer == "cli" and attr in CLI_HELPERS)
                if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "levitomo" or name.startswith("levitomo."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers:
                        setattr(module, attr, wrappers[id(obj)])


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-function totals and calls, per-layer self time and calls, and probe counts.

    A span's self time is its duration minus the durations of its direct
    children; calls run one at a time, so children never overlap.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[(span["proc"], span["parent"])] += span["end"] - span["start"]
    out: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        name = span["name"]
        layer = name.split(".", 1)[0]
        duration = span["end"] - span["start"]
        out[f"{name}_s"] += duration
        out[f"{name}.calls"] += 1
        out[f"{layer}.self_s"] += duration - child_time[(span["proc"], span["local"])]
        out[f"{layer}.calls"] += 1
        for key in ("bytes", "samples", "dropped", "points"):
            if key in span:
                out[f"{name}.{key}"] += span[key]
    return dict(out)


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    if argv[1] != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- CLI_ARGS...")
    import levitomo.cli

    recorder = Recorder()
    recorder.install()
    try:
        return levitomo.cli.main(argv[2:])
    finally:
        spans_path.write_text(json.dumps(recorder.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
