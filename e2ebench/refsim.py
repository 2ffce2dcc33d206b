"""Reference statevector simulator with its own gate table.

The output checks must not trust the program under test, so this module
shares no code with ``repro``: gates are defined here from their
textbook matrices and applied with plain ``numpy.tensordot``.  It is
slow (one tensor contraction per gate) and only ever runs outside the
timed region.

Conventions: a circuit is a :class:`Circ` over ``n`` qubits whose ops
are ``(name, qubits, params)``.  Gate matrices list their first qubit
argument as the most significant bit (``cx(c, t)`` is the textbook
CNOT).  A basis-state index has qubit ``q`` at bit ``q``, which is also
how count keys read: clbit 0 rightmost.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_S2 = 1.0 / math.sqrt(2.0)


def _u3(theta, phi, lam):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -cmath.exp(1j * lam) * s],
                     [cmath.exp(1j * phi) * s,
                      cmath.exp(1j * (phi + lam)) * c]])


def _diag(*phases):
    return np.diag([cmath.exp(1j * p) for p in phases])


def _controlled(base):
    dim = base.shape[0]
    full = np.eye(2 * dim, dtype=complex)
    full[dim:, dim:] = base
    return full


_X = np.array([[0, 1], [1, 0]], dtype=complex)

#: name -> (number of qubits, matrix builder taking the gate parameters).
GATES = {
    "id": (1, lambda: np.eye(2, dtype=complex)),
    "x": (1, lambda: _X),
    "y": (1, lambda: np.array([[0, -1j], [1j, 0]])),
    "z": (1, lambda: _diag(0, math.pi)),
    "h": (1, lambda: np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex)),
    "s": (1, lambda: _diag(0, math.pi / 2)),
    "sdg": (1, lambda: _diag(0, -math.pi / 2)),
    "t": (1, lambda: _diag(0, math.pi / 4)),
    "tdg": (1, lambda: _diag(0, -math.pi / 4)),
    "sx": (1, lambda: 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])),
    "sxdg": (1, lambda: 0.5 * np.array([[1 - 1j, 1 + 1j],
                                        [1 + 1j, 1 - 1j]])),
    "rx": (1, lambda t: np.array([[math.cos(t / 2), -1j * math.sin(t / 2)],
                                  [-1j * math.sin(t / 2), math.cos(t / 2)]])),
    "ry": (1, lambda t: np.array([[math.cos(t / 2), -math.sin(t / 2)],
                                  [math.sin(t / 2), math.cos(t / 2)]],
                                 dtype=complex)),
    "rz": (1, lambda p: _diag(-p / 2, p / 2)),
    "u1": (1, lambda lam: _diag(0, lam)),
    "u2": (1, lambda phi, lam: _u3(math.pi / 2, phi, lam)),
    "u3": (1, _u3),
    "cx": (2, lambda: _controlled(_X)),
    "cz": (2, lambda: _diag(0, 0, 0, math.pi)),
    "cu1": (2, lambda lam: _diag(0, 0, 0, lam)),
    "swap": (2, lambda: np.eye(4, dtype=complex)[[0, 2, 1, 3]]),
    "ccx": (3, lambda: _controlled(_controlled(_X))),
}

#: Gates whose inverse is the same gate with negated parameters.
_NEGATE = {"rx", "ry", "rz", "u1", "cu1"}
_SELF_INVERSE = {"id", "x", "y", "z", "h", "cx", "cz", "swap", "ccx"}
_DAGGER = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t", "sx": "sxdg",
           "sxdg": "sx"}


class Circ:
    """A gate list over ``n`` qubits: the benchmark's own circuit form."""

    __slots__ = ("n", "ops", "name")

    def __init__(self, n, name="circ"):
        self.n = n
        self.ops = []
        self.name = name

    def add(self, gate, *qubits, params=()):
        arity, _build = GATES[gate]
        if len(qubits) != arity or len(set(qubits)) != arity:
            raise ValueError(f"{gate} needs {arity} distinct qubits")
        if any(not 0 <= q < self.n for q in qubits):
            raise ValueError(f"{gate}{qubits} outside {self.n} qubits")
        self.ops.append((gate, tuple(qubits), tuple(params)))
        return self

    def extend(self, other):
        self.ops.extend(other.ops)
        return self

    def inverse(self):
        inv = Circ(self.n, self.name + "_dg")
        for gate, qubits, params in reversed(self.ops):
            if gate in _SELF_INVERSE:
                inv.ops.append((gate, qubits, params))
            elif gate in _DAGGER:
                inv.ops.append((_DAGGER[gate], qubits, params))
            elif gate in _NEGATE:
                inv.ops.append((gate, qubits, tuple(-p for p in params)))
            elif gate == "u3":
                theta, phi, lam = params
                inv.ops.append(("u3", qubits, (-theta, -lam, -phi)))
            else:
                raise ValueError(f"no inverse rule for {gate}")
        return inv

    def count(self, gate):
        return sum(1 for op in self.ops if op[0] == gate)


def matrix(gate, params=()):
    """The gate's matrix (first qubit argument most significant)."""
    return np.asarray(GATES[gate][1](*params), dtype=complex)


def zero_state(n):
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    return state


def apply(state, gate, qubits, params=()):
    """Apply one gate to a ``(2,)*n`` state tensor (axis 0 = qubit n-1)."""
    n = state.ndim
    k = len(qubits)
    axes = [n - 1 - q for q in qubits]
    u = matrix(gate, params).reshape((2,) * (2 * k))
    out = np.tensordot(u, state, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def statevector(circ, state=None):
    """Final amplitudes of ``circ`` from ``|0..0>``; flat, index bit q =
    qubit q."""
    if state is None:
        state = zero_state(circ.n)
    for gate, qubits, params in circ.ops:
        state = apply(state, gate, qubits, params)
    return state.reshape(-1)


def probabilities(circ):
    amps = statevector(circ)
    probs = (amps * amps.conj()).real
    return probs / probs.sum()


def bitstring(index, n):
    """Count key of basis index ``index`` (qubit 0 rightmost)."""
    return format(index, f"0{n}b")
