"""Seeded input circuits, built in the benchmark's own form.

Every workload input is a :class:`~refsim.Circ` made here from a
``numpy`` generator, so the same seed gives the same inputs and the
reference simulator can evaluate exactly what the program was given.
:func:`to_repro` is the one place the benchmark turns its circuits into
the program's ``QuantumCircuit``.
"""

from __future__ import annotations

import math

from refsim import Circ

ONE_QUBIT = ("h", "t", "sx", "rx", "ry", "rz", "u3")


def fig1():
    """The 4-qubit circuit of the paper's Sec. IV run-through (Fig. 1)."""
    c = Circ(4, "fig1")
    c.add("h", 2).add("cx", 2, 3).add("cx", 0, 1).add("h", 1)
    c.add("cx", 1, 2).add("t", 0).add("cx", 2, 0).add("cx", 0, 1)
    return c


def bernstein_vazirani(secret):
    """BV over ``len(secret)`` data qubits plus one ancilla (the last).

    ``secret[i]`` is the bit read on qubit ``i``; the ideal outcome on the
    data qubits is the secret with certainty.
    """
    n = len(secret)
    c = Circ(n + 1, "bv_" + "".join(map(str, secret)))
    c.add("x", n).add("h", n)
    for q in range(n):
        c.add("h", q)
    for q, bit in enumerate(secret):
        if bit:
            c.add("cx", q, n)
    for q in range(n):
        c.add("h", q)
    return c


def _mcz(c, controls, target, ancilla=None):
    """Phase-flip |1..1> over ``controls + [target]`` (2 or 3 controls)."""
    if len(controls) == 2:
        c.add("h", target).add("ccx", controls[0], controls[1], target)
        c.add("h", target)
        return
    a, b, d = controls
    c.add("ccx", a, b, ancilla)
    _mcz(c, [ancilla, d], target)
    c.add("ccx", a, b, ancilla)


def grover(n, marked, iterations):
    """Grover search over ``n`` (3 or 4) qubits for basis state
    ``marked``; 4 qubits use one extra ancilla qubit (the last)."""
    width = n + (1 if n == 4 else 0)
    ancilla = n if n == 4 else None
    c = Circ(width, f"grover{n}_{marked}")
    qubits = list(range(n))
    for q in qubits:
        c.add("h", q)
    for _ in range(iterations):
        flips = [q for q in qubits if not (marked >> q) & 1]
        for q in flips:
            c.add("x", q)
        _mcz(c, qubits[:-1], qubits[-1], ancilla)
        for q in flips:
            c.add("x", q)
        for q in qubits:
            c.add("h", q).add("x", q)
        _mcz(c, qubits[:-1], qubits[-1], ancilla)
        for q in qubits:
            c.add("x", q).add("h", q)
    return c


def qft(n):
    """The textbook QFT (with its final qubit reversal) on ``n`` qubits."""
    c = Circ(n, f"qft{n}")
    for j in reversed(range(n)):
        c.add("h", j)
        for k in reversed(range(j)):
            c.add("cu1", k, j, params=(math.pi / 2 ** (j - k),))
    for q in range(n // 2):
        c.add("swap", q, n - 1 - q)
    return c


def qft_roundtrip(n, basis):
    """Prepare ``|basis>``, apply QFT then its inverse: ideally returns
    ``basis`` with certainty."""
    c = Circ(n, f"qftrt{n}_{basis}")
    for q in range(n):
        if (basis >> q) & 1:
            c.add("x", q)
    forward = qft(n)
    return c.extend(forward).extend(forward.inverse())


def product_layer(n, rng, name):
    """One seeded ``u3`` on every qubit (a random product input state)."""
    c = Circ(n, name)
    for q in range(n):
        c.add("u3", q, params=tuple(rng.uniform(0, 2 * math.pi, 3)))
    return c


def random_circuit(n, layers, shape, rng, name=None):
    """Brickwork-style random circuit: each layer puts one gate from
    :data:`ONE_QUBIT` on every qubit, then CX gates on a random perfect
    matching of the qubits.

    ``shape`` (a generator) draws the gate types and CX pairs, ``rng``
    the rotation angles: circuits with the same ``shape`` draw have the
    same gates in the same places and cost the same to compile and run.
    """
    c = Circ(n, name or f"rand{n}x{layers}")
    for _ in range(layers):
        for q in range(n):
            gate = ONE_QUBIT[int(shape.integers(len(ONE_QUBIT)))]
            if gate in ("rx", "ry", "rz"):
                c.add(gate, q, params=(float(rng.uniform(0, 2 * math.pi)),))
            elif gate == "u3":
                c.add(gate, q,
                      params=tuple(float(v) for v in
                                   rng.uniform(0, 2 * math.pi, 3)))
            else:
                c.add(gate, q)
        order = [int(q) for q in shape.permutation(n)]
        for a, b in zip(order[0::2], order[1::2]):
            c.add("cx", a, b)
    return c


def ghz(n):
    c = Circ(n, f"ghz{n}")
    c.add("h", 0)
    for q in range(1, n):
        c.add("cx", q - 1, q)
    return c


def ry_ansatz(n, reps):
    """Hardware-efficient RY ansatz; returns (circ, parameter count).

    Parameter slots are written as ``("ry", (q,), (index,))`` with an
    integer index; :func:`bind` substitutes values for them.
    """
    c = Circ(n, f"ry_ansatz{n}x{reps}")
    index = 0
    for rep in range(reps + 1):
        for q in range(n):
            c.ops.append(("ry", (q,), (index,)))
            index += 1
        if rep < reps:
            for q in range(n - 1):
                c.add("cx", q, q + 1)
    return c, index


def bind(template, values):
    """Substitute ``values`` into an :func:`ry_ansatz` template."""
    c = Circ(template.n, template.name + "_bound")
    for gate, qubits, params in template.ops:
        if gate == "ry":
            params = (float(values[params[0]]),)
        c.ops.append((gate, qubits, params))
    return c


def to_repro(circ, measure=True, parameters=None):
    """Build the program's ``QuantumCircuit`` for ``circ``.

    ``measure`` adds one clbit per qubit and, after a barrier, measures
    qubit ``q`` into clbit ``q``.  With ``parameters`` (a list of program
    ``Parameter`` objects) the ``ry`` slots of an :func:`ry_ansatz`
    template are left symbolic.
    """
    from repro.circuit.quantumcircuit import QuantumCircuit

    qc = QuantumCircuit(circ.n, circ.n) if measure else QuantumCircuit(
        circ.n)
    qc.name = circ.name
    for gate, qubits, params in circ.ops:
        if parameters is not None and gate == "ry":
            params = (parameters[params[0]],)
        getattr(qc, gate)(*params, *qubits)
    if measure:
        # As ``measure_all`` does: the barrier keeps every measurement
        # terminal after routing.
        qc.barrier(*range(circ.n))
        for q in range(circ.n):
            qc.measure(q, q)
    return qc
