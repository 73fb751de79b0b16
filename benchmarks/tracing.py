"""In-memory span tracer that wraps public functions of the nisqlab layers.

Spans are recorded from the benchmark's side only: `install` rebinds each
listed function, in every loaded `nisqlab` module that imported it, to a
wrapper that records one span per call.  Calls between layers (for example
`algorithms.generate_noisy_parity` calling `qsim.sample_outcomes`) therefore
nest, and a span's self time is its duration minus the time its child spans
cover.  The program itself is not modified; `uninstall` restores it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Public entry points timed in the traced run, by layer module.  The span
# name is "<module>.<function>".
TRACED = {
    "qsim": ("sample_outcomes", "exact_output_distribution"),
    "algorithms": ("generate_noisy_parity", "solve_noisy_parity_bruteforce"),
    "metrics": ("check_info_decay",),
    "codes": ("membership_A", "membership_B"),
    "harness": ("run_controller", "perturbation_check", "lecam_advantage"),
}

# span fields
NAME, START, END, PARENT, OP, NQ, STEPS = range(7)


def duration(span: list) -> float:
    return span[END] - span[START]


class Tracer:
    """Keeps spans as lists [name, start, end, parent, op, n_qubits, steps]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []  # module, attr, original, wrapper

    def begin(self, name: str, op: int, n_qubits=None, steps=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, op, n_qubits, steps])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def current_op(self) -> int:
        return self.spans[self._stack[0]][OP] if self._stack else -1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            first = args[0] if args else None
            steps = getattr(first, "steps", None)
            index = self.begin(
                name,
                self.current_op(),
                getattr(first, "n_qubits", None),
                len(steps) if steps is not None else None,
            )
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def install(self) -> None:
        """Rebind every TRACED function wherever a nisqlab module holds it.

        The bindings are found on the first call; later calls only rebind,
        so the tracer can be switched on and off around single ops.
        """
        if not self._bindings:
            modules = [m for k, m in sys.modules.items() if k == "nisqlab" or k.startswith("nisqlab.")]
            for layer, names in TRACED.items():
                home = sys.modules[f"nisqlab.{layer}"]
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._bindings.append((mod, attr, original, wrapper))
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the part its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += duration(s)
        return [duration(s) - c for s, c in zip(self.spans, child)]

    def self_totals(self) -> dict[str, float]:
        """span name -> summed self time."""
        out: dict[str, float] = defaultdict(float)
        for s, self_s in zip(self.spans, self.self_times()):
            out[s[NAME]] += self_s
        return out

    def calls(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "n_qubits", "steps")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
