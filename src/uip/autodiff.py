"""Reverse-mode autodiff on a tape of whole-array operations.

Every node holds one numpy array. An op computes its output from its
parents' values and, on a recording tape, appends one record: the output
node, its parent nodes and its vector-Jacobian product (VJP), a function
from the gradient of the output to one gradient per parent. `gradient`
walks the records once in reverse creation order, which is a valid reverse
topological order because parents always precede children, and keeps one
gradient array per node that later contributions are added into. Matmul
keeps only its two inputs; its backward is two matrix products.

Inputs enter as leaves, which take gradients (parameters), or constants,
which do not (data). Binary ops broadcast like numpy, and their VJPs sum
the gradient back over the broadcast axes.

A tape built with `grads=False` records values and no ops: its nodes
die with their last Python reference, so a forward pass on it holds only
the live activations, and it runs the same arithmetic as a recording tape,
so the values are bitwise equal.
"""
from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import ContractViolationError


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes that broadcasting added to `shape`."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def _repeats(index) -> bool:
    """Whether an index holds an integer array, which may name an entry twice."""
    parts = index if isinstance(index, tuple) else (index,)
    return any(isinstance(p, np.ndarray) and p.dtype != bool for p in parts)


class Node:
    """One array on a tape. Indexing, reshape and transpose record tape ops."""

    __slots__ = ("tape", "value", "tracked")

    def __init__(self, tape: "Tape", value: np.ndarray, tracked: bool):
        self.tape = tape
        self.value = value
        self.tracked = tracked  # whether a gradient flows into this node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __getitem__(self, index) -> "Node":
        return self.tape.index(self, index)

    def reshape(self, *shape) -> "Node":
        return self.tape.reshape(self, shape)

    def transpose(self, *axes) -> "Node":
        return self.tape.transpose(self, axes or None)

    @property
    def T(self) -> "Node":
        return self.tape.transpose(self, None)


class Tape:
    """Append-only record of array ops with reverse-mode gradients."""

    def __init__(self, grads: bool = True):
        self.grads = grads
        self._size = 0
        self._ops: list[tuple[Node, tuple[Node, ...], Callable]] = []

    def __len__(self) -> int:
        """Number of scalar elements the tape has produced."""
        return self._size

    def _op(self, value: np.ndarray, parents: tuple[Node, ...], vjp: Callable) -> Node:
        self._size += value.size
        tracked = self.grads and any(p.tracked for p in parents)
        node = Node(self, value, tracked)
        if tracked:
            self._ops.append((node, parents, vjp))
        return node

    def leaf(self, values) -> Node:
        """An input that gradients flow into (on a recording tape)."""
        value = np.asarray(values, dtype=float)
        self._size += value.size
        return Node(self, value, self.grads)

    def const(self, values) -> Node:
        """An input that takes no gradient."""
        value = np.asarray(values, dtype=float)
        self._size += value.size
        return Node(self, value, False)

    # -- elementwise (binary ops broadcast) -------------------------------

    def _binary(self, value: np.ndarray, a: Node, b: Node, da: Callable, db: Callable) -> Node:
        """Op on a and b whose VJP is (da(g), db(g)), summed back to their shapes."""
        return self._op(value, (a, b), lambda g: (_unbroadcast(da(g), a.shape), _unbroadcast(db(g), b.shape)))

    def add(self, a: Node, b: Node) -> Node:
        return self._binary(a.value + b.value, a, b, lambda g: g, lambda g: g)

    def sub(self, a: Node, b: Node) -> Node:
        return self._binary(a.value - b.value, a, b, lambda g: g, lambda g: -g)

    def mul(self, a: Node, b: Node) -> Node:
        va, vb = a.value, b.value
        return self._binary(va * vb, a, b, lambda g: g * vb, lambda g: g * va)

    def blend(self, a: Node, b: Node, wa, wb) -> Node:
        """wa*a + wb*b with constant weights (scalar or per-element arrays)."""
        wa = np.asarray(wa, dtype=float)
        wb = np.asarray(wb, dtype=float)
        return self._binary(wa * a.value + wb * b.value, a, b, lambda g: g * wa, lambda g: g * wb)

    def scale(self, a: Node, c) -> Node:
        c = np.asarray(c, dtype=float)
        return self._op(a.value * c, (a,), lambda g: (_unbroadcast(g * c, a.shape),))

    def add_const(self, a: Node, c) -> Node:
        c = np.asarray(c, dtype=float)
        return self._op(a.value + c, (a,), lambda g: (_unbroadcast(g, a.shape),))

    def neg(self, a: Node) -> Node:
        return self.scale(a, -1.0)

    def sigmoid(self, a: Node) -> Node:
        y = _stable_sigmoid(a.value)
        return self._op(y, (a,), lambda g: (g * (y * (1.0 - y)),))

    def tanh(self, a: Node) -> Node:
        y = np.tanh(a.value)
        return self._op(y, (a,), lambda g: (g * (1.0 - y * y),))

    def softplus(self, a: Node) -> Node:
        return self._op(np.logaddexp(0.0, a.value), (a,), lambda g: (g * _stable_sigmoid(a.value),))

    def sqrt(self, a: Node) -> Node:
        y = np.sqrt(a.value)
        return self._op(y, (a,), lambda g: (g * (0.5 / y),))

    def recip(self, a: Node) -> Node:
        y = 1.0 / a.value
        return self._op(y, (a,), lambda g: (g * (-y * y),))

    def abs(self, a: Node) -> Node:
        return self._op(np.abs(a.value), (a,), lambda g: (g * np.sign(a.value),))

    def square(self, a: Node) -> Node:
        return self._op(a.value * a.value, (a,), lambda g: (g * (2.0 * a.value),))

    # -- reductions and linear algebra ------------------------------------

    def sum(self, a: Node) -> Node:
        """Sum of every element -> 0-d node."""
        return self._op(np.asarray(a.value.sum()), (a,), lambda g: (np.broadcast_to(g, a.shape),))

    def group_sum(self, a: Node) -> Node:
        """Sum over the last axis."""
        return self._op(a.value.sum(axis=-1), (a,), lambda g: (np.broadcast_to(g[..., None], a.shape),))

    def group_dot(self, a: Node, b: Node) -> Node:
        """Dot products over the last axis of two equal-shape nodes."""
        va, vb = a.value, b.value
        return self._op(np.einsum("...i,...i->...", va, vb), (a, b), lambda g: (g[..., None] * vb, g[..., None] * va))

    def matmul(self, a: Node, b: Node) -> Node:
        """(m, k) @ (k, n), or stacked (F, m, k) @ (F, k, n)."""
        va, vb = a.value, b.value
        if not (va.ndim == vb.ndim in (2, 3) and va.shape[:-2] == vb.shape[:-2] and va.shape[-1] == vb.shape[-2]):
            raise ContractViolationError(f"matmul shape mismatch {va.shape} @ {vb.shape}")
        return self._op(
            va @ vb, (a, b),
            lambda g: (g @ vb.mT if a.tracked else None, va.mT @ g if b.tracked else None),
        )

    # -- structure ----------------------------------------------------------

    def index(self, a: Node, index) -> Node:
        """a[index] for any numpy index; the backward scatter-adds."""

        def vjp(g):
            full = np.zeros(a.shape)
            if _repeats(index):
                np.add.at(full, index, g)
            else:
                full[index] = g
            return (full,)

        return self._op(a.value[index], (a,), vjp)

    def select(self, mask: np.ndarray, a: Node) -> Node:
        """a where mask holds, exact zeros elsewhere (whatever a holds there)."""
        return self._op(np.where(mask, a.value, 0.0), (a,), lambda g: (np.where(mask, g, 0.0),))

    def concat(self, nodes: list[Node], axis: int = 0) -> Node:
        cuts = np.cumsum([n.shape[axis] for n in nodes])[:-1]
        return self._op(
            np.concatenate([n.value for n in nodes], axis=axis), tuple(nodes),
            lambda g: tuple(np.split(g, cuts, axis=axis)),
        )

    def stack(self, nodes: list[Node]) -> Node:
        """Equal-shape nodes stacked along a new first axis."""
        return self._op(np.stack([n.value for n in nodes]), tuple(nodes), lambda g: tuple(g))

    def reshape(self, a: Node, shape) -> Node:
        return self._op(a.value.reshape(*shape), (a,), lambda g: (g.reshape(a.shape),))

    def transpose(self, a: Node, axes) -> Node:
        inverse = None if axes is None else tuple(np.argsort(axes))
        return self._op(a.value.transpose(axes), (a,), lambda g: (g.transpose(inverse),))

    # -- backward ----------------------------------------------------------

    def gradient(self, root: Node, wrt: Iterable[Node]) -> list[np.ndarray]:
        """d root / d node for each node of wrt (zeros where root ignores it).

        The walk pops the records as it goes, so a tape yields one gradient.
        That frees each activation once its VJP has run, and it breaks the
        reference cycle between the tape and its nodes, so the whole graph
        dies by reference counting instead of waiting for the cycle collector.
        """
        grads = {root: np.ones(root.shape)}
        owned: set[Node] = set()  # gradients the walk allocated and may add into
        while self._ops:
            out, parents, vjp = self._ops.pop()
            g = grads.pop(out, None)
            if g is None:
                continue
            for parent, gp in zip(parents, vjp(g)):
                if gp is None or not parent.tracked:
                    continue
                acc = grads.get(parent)
                if acc is None:
                    grads[parent] = gp
                elif parent in owned:
                    acc += gp
                else:
                    grads[parent] = np.asarray(acc + gp)
                    owned.add(parent)
        return [
            np.array(grads[n], dtype=float) if n in grads else np.zeros(n.shape)
            for n in wrt
        ]

