"""Self-tests for the reference simulator and the output checkers.

Run from the repository root with ``python3 e2ebench/selftest.py`` (or
``python3 -m pytest e2ebench/selftest.py``).  The reference must agree
with analytic GHZ, Bell and QFT results, and every checker must reject a
deliberately corrupted output.
"""

from __future__ import annotations

import cmath
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import circuits as C  # noqa: E402
import refsim  # noqa: E402


def _sample(probs, shots, rng, n):
    draws = rng.choice(len(probs), size=shots, p=probs)
    values, counts = np.unique(draws, return_counts=True)
    return {refsim.bitstring(int(v), n): int(c)
            for v, c in zip(values, counts)}


def _reverse_bits(counts):
    return {key[::-1]: count for key, count in counts.items()}


def test_ghz_and_bell_amplitudes():
    for n in (2, 3, 5):
        amps = refsim.statevector(C.ghz(n))
        expected = np.zeros(2 ** n, dtype=complex)
        expected[0] = expected[-1] = 1 / math.sqrt(2)
        assert np.allclose(amps, expected)


def test_cx_control_is_first_argument():
    circ = refsim.Circ(2).add("x", 0).add("cx", 0, 1)
    assert np.allclose(abs(refsim.statevector(circ)) ** 2, [0, 0, 0, 1])
    circ = refsim.Circ(2).add("x", 1).add("cx", 0, 1)
    assert np.allclose(abs(refsim.statevector(circ)) ** 2, [0, 0, 1, 0])


def test_qft_matches_the_dft():
    n, x = 4, 11
    circ = refsim.Circ(n)
    for q in range(n):
        if (x >> q) & 1:
            circ.add("x", q)
    amps = refsim.statevector(circ.extend(C.qft(n)))
    size = 2 ** n
    dft = np.array([cmath.exp(2j * math.pi * x * k / size)
                    for k in range(size)]) / math.sqrt(size)
    assert abs(np.vdot(dft, amps)) ** 2 > 1 - 1e-9


def test_qft_roundtrip_returns_the_basis_state():
    for n, basis in ((3, 5), (6, 41)):
        probs = refsim.probabilities(C.qft_roundtrip(n, basis))
        assert probs[basis] > 1 - 1e-9


def test_inverse_undoes_random_circuit():
    rng = np.random.default_rng(3)
    circ = C.random_circuit(5, 4, rng, rng)
    probs = refsim.probabilities(
        refsim.Circ(5).extend(circ).extend(circ.inverse()))
    assert probs[0] > 1 - 1e-9


def test_algorithms_give_their_answers():
    probs = refsim.probabilities(C.bernstein_vazirani([1, 0, 1, 1]))
    data = probs.reshape(2, -1).sum(axis=0)     # drop the ancilla bit
    assert data[0b1101] > 1 - 1e-9
    assert refsim.probabilities(C.grover(3, 6, 2))[6] > 0.9
    assert refsim.probabilities(C.grover(4, 9, 3))[9] > 0.9


def test_xeb_check_accepts_true_and_rejects_permuted_samples():
    rng = np.random.default_rng(7)
    circ = C.random_circuit(8, 8, rng, rng)
    probs = refsim.probabilities(circ)
    counts = _sample(probs, 20000, rng, 8)
    assert checks.xeb_check("ok", [probs], [counts]) == []
    assert checks.xeb_check("permuted", [probs], [_reverse_bits(counts)])


def test_known_answer_checks_reject_corruption():
    good = {"00000": 510, "11111": 514}
    assert checks.check_known_answer("ghz", good, 1024,
                                     ["00000", "11111"], balanced=True) == []
    stray = {"00000": 510, "11110": 514}
    assert checks.check_known_answer("ghz", stray, 1024,
                                     ["00000", "11111"], balanced=True)
    lopsided = {"00000": 1000, "11111": 24}
    assert checks.check_known_answer("ghz", lopsided, 1024,
                                     ["00000", "11111"], balanced=True)
    assert checks.check_known_answer("rt", {"011": 8}, 8, ["110"])


def test_noisy_run_check_rejects_permuted_bits():
    circ = C.bernstein_vazirani([1, 1, 0])
    reference = checks.distribution(circ)
    rng = np.random.default_rng(5)
    keys = list(reference)
    draws = rng.choice(len(keys), size=1024, p=[reference[k] for k in keys])
    counts = {}
    for d in draws:
        counts[keys[d]] = counts.get(keys[d], 0) + 1
    expect = ([0, 1, 2], "011")
    assert checks.check_noisy_run("bv", circ, counts, 1024, expect) == []
    assert checks.check_noisy_run("bv", circ, _reverse_bits(counts), 1024,
                                  expect)
    assert checks.check_noisy_run("bv", circ, counts, 2048, expect)


def test_mapping_check_rejects_wrong_layout_reading():
    from repro.providers import IBMQ
    from repro.transpiler import preset

    device = IBMQ.get_backend("ibmqx5")
    rng = np.random.default_rng(2)
    circ = C.product_layer(6, rng, "qft6").extend(C.qft(6))
    program = C.to_repro(circ, measure=False)
    compiled = preset.transpile(program, backend=device,
                                optimization_level=1, seed=11,
                                transpile_cache=False)
    assert checks.check_mapped("qft6", "ibmqx5", circ, program, compiled,
                               simulate=True) == []
    perm = list(compiled.final_permutation)
    compiled.final_permutation = perm[1:] + perm[:1]
    assert checks.check_mapped("qft6", "ibmqx5", circ, program, compiled,
                               simulate=True)
    compiled.final_permutation = perm
    compiled.data.pop(len(compiled.data) // 2)
    assert checks.check_mapped("qft6", "ibmqx5", circ, program, compiled,
                               simulate=True)


def main():
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok    {name}")
            except Exception as error:  # noqa: BLE001 — report and go on
                failures += 1
                print(f"FAIL  {name}: {type(error).__name__}: {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
