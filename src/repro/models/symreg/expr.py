"""Expression trees for symbolic regression.

Expressions evaluate vectorised over NumPy arrays and use *protected*
operators (division, log, sqrt, pow) so that any tree produced by the
genetic operators yields finite values on any input — a standard GP
hygiene requirement that keeps fitness evaluation total.

Trees are immutable: no code mutates a node after construction.
:meth:`Expression.replace`, :meth:`~Expression.with_constants` and
:meth:`~Expression.simplify` build new trees that share the untouched
subtrees of their input, the GP engine shares genes and subtrees between
individuals instead of copying them, every node records its
:meth:`~Expression.size` and :meth:`~Expression.depth` when built, and
caches its ``str()``.  Mutating a node in place would silently corrupt
every tree that shares it and every recorded or cached value above it.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

import numpy as np

_EPS = 1e-12
_EXP_CLIP = 60.0
_POW_CLIP = 6.0


class Expression:
    """Base node.  Subclasses: :class:`Const`, :class:`Var`,
    :class:`Unary`, :class:`Binary`."""

    #: node count contribution used by parsimony pressure
    arity = 0
    # A leaf's size and depth; Unary and Binary set theirs when built.
    _size = 1
    _depth = 1
    # Cache, filled on first use (nodes are immutable).
    _str: str | None = None

    def evaluate(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        """Evaluate over *env* (parameter name -> array), returning finite
        values of the broadcast shape."""
        # One errstate for the whole tree: the protected operators
        # produce and then replace inf/nan, which numpy would warn about.
        with np.errstate(all="ignore"):
            return self._eval(env)

    def _eval(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        """:meth:`evaluate` without entering ``np.errstate``; a node
        evaluates its children through this."""
        raise NotImplementedError

    def children(self) -> tuple["Expression", ...]:
        return ()

    def with_children(self, children: tuple["Expression", ...]) -> "Expression":
        """A copy of this node with *children* substituted."""
        raise NotImplementedError

    # -- structural helpers ---------------------------------------------------

    def size(self) -> int:
        """Total node count (complexity measure)."""
        return self._size

    def depth(self) -> int:
        return self._depth

    def walk(self) -> Iterator["Expression"]:
        """Pre-order traversal."""
        yield self
        for c in self.children():
            yield from c.walk()

    def copy(self) -> "Expression":
        return self.with_children(tuple(c.copy() for c in self.children()))

    def _locate(self, index: int) -> tuple[int, "Expression", int]:
        """``(j, child, i)``: pre-order node *index* (> 0) of this tree is
        node ``i`` of its ``j``-th child."""
        index -= 1
        for j, c in enumerate(self.children()):
            size = c.size()
            if index < size:
                return j, c, index
            index -= size
        raise IndexError(index)

    def node_at(self, index: int) -> "Expression":
        """The pre-order node at *index*: ``list(self.walk())[index]``,
        reached by descending through the subtree sizes."""
        if not 0 <= index < self.size():
            raise IndexError(f"node index {index} out of range for {self.size()} nodes")
        node = self
        while index:
            _, node, index = node._locate(index)
        return node

    def replace(self, index: int, new: "Expression") -> "Expression":
        """This tree with the pre-order node at *index* replaced by *new*;
        an index out of range returns the tree itself.

        Only the path from the root to *index* is rebuilt; *new* and every
        other subtree are shared with the inputs.
        """
        if index == 0:
            return new
        if not 0 < index < self.size():
            return self
        j, child, index = self._locate(index)
        kids = list(self.children())
        kids[j] = child.replace(index, new)
        return self.with_children(tuple(kids))

    def variables(self) -> set[str]:
        return {n.name for n in self.walk() if isinstance(n, Var)}

    def constants(self) -> list[float]:
        return [n.value for n in self.walk() if isinstance(n, Const)]

    def with_constants(self, values) -> "Expression":
        """A copy with constants replaced in pre-order by *values*."""
        it = iter(values)

        def rec(node: Expression) -> Expression:
            if isinstance(node, Const):
                return Const(float(next(it)))
            kids = tuple(rec(c) for c in node.children())
            return node.with_children(kids) if kids else node

        return rec(self)

    def simplify(self) -> "Expression":
        """Constant folding plus a few algebraic identities."""
        return _simplify(self)

    # -- misc -------------------------------------------------------------------

    def __str__(self) -> str:
        if self._str is None:
            self._str = self._format()
        return self._str

    def _format(self) -> str:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, Expression) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Expression<{self}>"


class Const(Expression):
    """A floating-point literal."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def _eval(self, env):
        return np.asarray(self.value, dtype=float)

    def with_children(self, children):
        assert not children
        return Const(self.value)

    def _format(self) -> str:
        # repr() keeps full precision so parse(str(e)) round-trips exactly.
        return repr(self.value)


class Var(Expression):
    """A named parameter."""

    def __init__(self, name: str) -> None:
        if not name.isidentifier():
            raise ValueError(f"invalid variable name {name!r}")
        self.name = name

    def _eval(self, env):
        try:
            return np.asarray(env[self.name], dtype=float)
        except KeyError:
            raise KeyError(f"variable {self.name!r} missing from environment")

    def with_children(self, children):
        assert not children
        return Var(self.name)

    def _format(self) -> str:
        return self.name


def _finite(out):
    """*out* with nan -> 0 and +-inf -> +-1e30.  An already finite array is
    returned as is: ``nan_to_num`` would only copy it."""
    if np.isfinite(out).all():
        return out
    return np.nan_to_num(out, nan=0.0, posinf=1e30, neginf=-1e30)


def _p_sqrt(x):
    return np.sqrt(np.abs(x))


def _p_log(x):
    return np.log(np.abs(x) + _EPS)


def _p_exp(x):
    return np.exp(np.clip(x, -_EXP_CLIP, _EXP_CLIP))


def _p_div(a, b):
    return np.where(np.abs(b) < _EPS, 1.0, a / np.where(np.abs(b) < _EPS, 1.0, b))


def _p_pow(a, b):
    b = np.clip(b, -_POW_CLIP, _POW_CLIP)
    with np.errstate(all="ignore"):
        out = np.power(np.abs(a) + _EPS, b)
    return np.nan_to_num(out, nan=1.0, posinf=1e30, neginf=-1e30)


UNARY_OPS = {
    "neg": np.negative,
    "sqrt": _p_sqrt,
    "log": _p_log,
    "exp": _p_exp,
    "abs": np.abs,
    "cbrt": np.cbrt,
    "square": np.square,
}

BINARY_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": _p_div,
    "pow": _p_pow,
    "min": np.minimum,
    "max": np.maximum,
}

#: operator sets offered to the GP engine by default (pow/min/max excluded;
#: they destabilise the search and the paper's kernels don't need them)
DEFAULT_UNARY = ("sqrt", "log", "square")
DEFAULT_BINARY = ("+", "-", "*", "/")


class Unary(Expression):
    """A one-argument operator node."""

    arity = 1

    def __init__(self, op: str, child: Expression) -> None:
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        self.op = op
        self.child = child
        self._size = 1 + child.size()
        self._depth = 1 + child.depth()

    def _eval(self, env):
        return _finite(UNARY_OPS[self.op](self.child._eval(env)))

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (c,) = children
        return Unary(self.op, c)

    def _format(self) -> str:
        if self.op == "neg":
            return f"(-{self.child})"
        return f"{self.op}({self.child})"


class Binary(Expression):
    """A two-argument operator node."""

    arity = 2

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self._size = 1 + left.size() + right.size()
        self._depth = 1 + max(left.depth(), right.depth())

    def _eval(self, env):
        return _finite(
            BINARY_OPS[self.op](self.left._eval(env), self.right._eval(env))
        )

    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return Binary(self.op, left, right)

    def _format(self) -> str:
        if self.op in ("min", "max", "pow"):
            return f"{self.op}({self.left}, {self.right})"
        return f"({self.left} {self.op} {self.right})"


def _simplify(node: Expression) -> Expression:
    kids = tuple(_simplify(c) for c in node.children())
    if kids:
        node = node.with_children(kids)
    # Constant folding.
    if kids and all(isinstance(c, Const) for c in kids):
        try:
            val = float(node.evaluate({}))
            if math.isfinite(val):
                return Const(val)
        except Exception:  # pragma: no cover - protected ops shouldn't raise
            pass
    # Identities.
    if isinstance(node, Binary):
        left, right = node.left, node.right
        lz = isinstance(left, Const) and left.value == 0.0
        rz = isinstance(right, Const) and right.value == 0.0
        lo = isinstance(left, Const) and left.value == 1.0
        ro = isinstance(right, Const) and right.value == 1.0
        if node.op == "+":
            if lz:
                return right
            if rz:
                return left
        elif node.op == "-":
            if rz:
                return left
        elif node.op == "*":
            if lo:
                return right
            if ro:
                return left
            if lz or rz:
                return Const(0.0)
        elif node.op == "/":
            if ro:
                return left
    if isinstance(node, Unary) and node.op == "neg":
        if isinstance(node.child, Unary) and node.child.op == "neg":
            return node.child.child
    return node
