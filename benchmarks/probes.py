"""Fixed-size kernel probes through public entry points (traced run only).

Each probe times one public call on a state of fixed size and reports the
median over a few repetitions in milliseconds.  They localise a kernel
change that the workloads' end-to-end numbers only show in aggregate.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from nisqlab import oracles, qsim


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run_probes(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 0x70726F62])
    out = {}

    amps = rng.standard_normal(2**21) + 1j * rng.standard_normal(2**21)
    state = qsim.PureState(21, amps / np.linalg.norm(amps))
    del amps
    u = qsim.haar_unitary(4, rng)
    for axis in (0, 10, 19):
        lay = qsim.layer(qsim.Gate(u, (axis, axis + 1)))
        out[f"qsim.gate2q_n21_axis{axis}_ms"] = _median_ms(lambda: qsim.apply_gate_layer(state, lay), 5)
    del state

    circuit = qsim.random_circuit(10, 2, 0.1, rng, p_two=1.0)
    out["qsim.exact_s_per_layer_n10"] = _median_ms(lambda: qsim.exact_output_distribution(circuit), 1) / 2e3

    rho = qsim.DensityMatrix.zero(10)
    out["qsim.depolarize_n10_ms"] = _median_ms(lambda: qsim.depolarize_all(rho, 0.1), 3)
    cnot = qsim.layer(qsim.CNOT(3, 7))
    out["qsim.density_gate_n10_ms"] = _median_ms(lambda: qsim.apply_gate_layer(rho, cnot), 5)
    del rho

    secret = "".join(str(b) for b in rng.integers(0, 2, size=12))
    binding = oracles.lift_to_unitary(oracles.make_bv(secret))
    batch = rng.standard_normal((256,) + (2,) * 13).astype(complex)
    wires = tuple(range(13))
    binding.apply_statevector(batch, wires, 13)  # builds the cached permutation
    out["oracles.permute_n13_ms"] = _median_ms(lambda: binding.apply_statevector(batch, wires, 13), 9)
    return out
