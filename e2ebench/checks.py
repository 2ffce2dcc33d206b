"""Output checks that trust only :mod:`refsim` and known answers.

Each checker returns a list of error strings (empty when the output is
correct).  None of them compares against a stored copy of the program's
output: the reference is either an analytic answer (GHZ, QFT*QFT^-1,
Bernstein-Vazirani, Grover) or the benchmark's own statevector.
"""

from __future__ import annotations

import math

import numpy as np

import refsim

#: Directed CX couplings of the IBM QX devices, (control, target), as
#: published for ibmqx4 (5 qubits) and ibmqx5 (16 qubits).
COUPLING = {
    "ibmqx4": {(1, 0), (2, 0), (2, 1), (2, 4), (3, 2), (3, 4)},
    "ibmqx5": {(1, 0), (1, 2), (2, 3), (3, 4), (3, 14), (5, 4), (6, 5),
               (6, 7), (6, 11), (7, 10), (8, 7), (9, 8), (9, 10), (11, 10),
               (12, 5), (12, 11), (12, 13), (13, 4), (13, 14), (15, 0),
               (15, 2), (15, 14)},
}
DEVICE_QUBITS = {"ibmqx4": 5, "ibmqx5": 16}
DEVICE_BASIS = {"u1", "u2", "u3", "cx", "id"}
NON_GATES = {"barrier", "measure"}

#: Lowest Hellinger fidelity a noisy device run may have to its ideal
#: reference distribution (see README).
HELLINGER_FLOOR = 0.50

#: How many standard errors the sampled mean probability may sit from
#: sum(p^2) in the XEB identity check.
XEB_SIGMAS = 5.0


def distribution(circ):
    """Reference outcome distribution of ``circ`` with every qubit
    measured into the clbit of the same index: {bitstring: p}."""
    probs = refsim.probabilities(circ)
    return {refsim.bitstring(i, circ.n): float(p)
            for i, p in enumerate(probs) if p > 1e-12}


def hellinger_fidelity(counts, reference):
    shots = sum(counts.values())
    overlap = sum(math.sqrt(count / shots * reference.get(key, 0.0))
                  for key, count in counts.items())
    return overlap ** 2


def marginal(counts, keep):
    """Counts over the clbits in ``keep`` (ordered, clbit 0 rightmost)."""
    out = {}
    for key, count in counts.items():
        bits = "".join(key[len(key) - 1 - q] for q in reversed(keep))
        out[bits] = out.get(bits, 0) + count
    return out


def modal(counts):
    return max(counts.items(), key=lambda item: (item[1], item[0]))[0]


def check_total(label, counts, shots):
    total = sum(counts.values())
    return [] if total == shots else [
        f"{label}: counts sum to {total}, expected {shots}"]


def check_noisy_run(label, circ, counts, shots, expect=None):
    """Device-flow run: shot total, Hellinger fidelity to the ideal
    distribution, and the known modal answer where there is one.

    ``expect`` is ``(clbits, bitstring)``: the bitstring the marginal over
    ``clbits`` must peak at.
    """
    errors = check_total(label, counts, shots)
    fidelity = hellinger_fidelity(counts, distribution(circ))
    if fidelity < HELLINGER_FLOOR:
        errors.append(f"{label}: Hellinger fidelity {fidelity:.3f} below "
                      f"floor {HELLINGER_FLOOR}")
    if expect is not None:
        clbits, answer = expect
        top = modal(marginal(counts, clbits))
        if top != answer:
            errors.append(f"{label}: modal outcome {top}, expected {answer}")
    return errors


def check_known_answer(label, counts, shots, answers, balanced=False):
    """Only ``answers`` may appear; with ``balanced`` they must split
    evenly within 5 binomial standard deviations."""
    errors = check_total(label, counts, shots)
    stray = set(counts) - set(answers)
    if stray:
        errors.append(f"{label}: unexpected outcomes {sorted(stray)[:3]}")
    if balanced:
        share = 1.0 / len(answers)
        sigma = math.sqrt(shots * share * (1 - share))
        for key in answers:
            if abs(counts.get(key, 0) - shots * share) > 5 * sigma:
                errors.append(f"{label}: {key} seen {counts.get(key, 0)} "
                              f"times of {shots}")
    return errors


def xeb_check(label, probs, samples):
    """The XEB identity: sampling ``x ~ p`` gives ``E[p(x)] = sum p^2``.

    ``probs`` is a list of reference probability vectors and ``samples``
    the matching list of counts; the identity is tested on the pooled
    samples, within :data:`XEB_SIGMAS` standard errors.
    """
    observed = expected = variance = 0.0
    total = 0
    for p, counts in zip(probs, samples):
        shots = sum(counts.values())
        p2 = float(np.dot(p, p))
        p3 = float(np.dot(p, p * p))
        observed += sum(count * p[int(key, 2)]
                        for key, count in counts.items())
        expected += shots * p2
        variance += shots * max(p3 - p2 * p2, 0.0)
        total += shots
    if total == 0:
        return [f"{label}: no samples"]
    sigma = math.sqrt(variance) if variance > 0 else 1e-12
    if abs(observed - expected) > XEB_SIGMAS * sigma:
        return [f"{label}: mean reference probability "
                f"{observed / total:.3e} vs sum p^2 {expected / total:.3e} "
                f"({abs(observed - expected) / sigma:.1f} sigma)"]
    return []


def program_edges(device):
    """The program's coupling edges for ``device`` (to confirm it models
    the same chip the checks assume)."""
    return {tuple(edge) for edge in device.coupling_map.edges}


def compiled_ops(compiled):
    """The program's compiled circuit as ``(name, qubits, params)``."""
    index = {qubit: i for i, qubit in enumerate(compiled.qubits)}
    ops = []
    for item in compiled.data:
        operation = item.operation
        ops.append((operation.name, tuple(index[q] for q in item.qubits),
                    tuple(float(p) for p in operation.params)))
    return ops


def check_mapped(label, device_name, logical, source, compiled, simulate):
    """Coupling/basis conformance of a compiled circuit and, when
    ``simulate``, equivalence to ``logical`` read through its
    ``initial_layout`` and ``final_permutation``.

    ``source`` is the program circuit that was compiled; its qubits key
    the layout.
    """
    errors = []
    edges = COUPLING[device_name]
    ops = compiled_ops(compiled)
    for name, qubits, _params in ops:
        if name in NON_GATES:
            continue
        if name not in DEVICE_BASIS:
            errors.append(f"{label}: gate {name} not in the device basis")
            break
        if name == "cx" and qubits not in edges:
            errors.append(f"{label}: cx{qubits} is not a coupling edge")
            break
    if errors or not simulate:
        return errors
    width = DEVICE_QUBITS[device_name]
    if compiled.num_qubits != width:
        return [f"{label}: compiled over {compiled.num_qubits} qubits, "
                f"device has {width}"]
    physical = refsim.Circ(width, label)
    physical.ops = [op for op in ops if op[0] not in NON_GATES]
    state = refsim.statevector(physical).reshape((2,) * width)
    layout = compiled.initial_layout
    home = [layout.physical(qubit) for qubit in source.qubits]
    perm = compiled.final_permutation or list(range(width))
    final = [perm[slot] for slot in home]
    ancillas = [q for q in range(width) if q not in final]
    axes = [width - 1 - final[v] for v in reversed(range(logical.n))]
    axes += [width - 1 - q for q in ancillas]
    block = np.transpose(state, axes).reshape(2 ** logical.n, -1)[:, 0]
    overlap = abs(np.vdot(refsim.statevector(logical), block)) ** 2
    if overlap < 1 - 1e-6:
        errors.append(f"{label}: state fidelity {overlap:.6f} to the "
                      "reference after layout and permutation")
    return errors

