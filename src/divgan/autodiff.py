"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run engine: arithmetic on `Var` objects records a computation
graph, `backward` replays it in reverse topological order and accumulates
gradients into `Var.grad`.

Only what a gradient can flow to is recorded. A `Var` built explicitly is a
leaf that requires a gradient; an array wrapped by `lift` (every non-`Var`
operand) is a constant. An op result requires a gradient iff one of its
operands does; a result computed only from constants keeps no parents and
no backward closure, so a forward pass over constants builds no graph.
`backward` walks only nodes that require a gradient, skips the matmul
products nobody reads, and leaves `.grad` untouched on constants.

Everything is float64 and strict: operand shapes must match exactly except
for the few broadcast forms the networks need (scalar operands, and a
row-vector bias added to a matrix). Anything else raises `ShapeMismatch`
naming the op and the shapes.

A graph is a single-use, single-threaded object; the ops themselves are
pure and safe to run concurrently on disjoint data.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Var",
    "ShapeMismatch",
    "NumericsError",
    "DIV_GUARD",
    "lift",
    "concat",
    "backward",
    "grad",
    "evaluate_with_gradients",
    "finite_diff_gradient",
    "jacobian",
]

# Denominators smaller than this are an error here; callers that can
# resample (the diversity regularizer) are expected to do so instead.
DIV_GUARD = 1e-12


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NumericsError(ArithmeticError):
    """Non-finite value or near-zero denominator where finiteness is promised."""


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Var:
    """Graph node: a float64 ndarray payload plus a gradient slot.

    `Var(x)` is a leaf that requires a gradient; `Var(x, requires_grad=False)`
    (what `lift` builds) is a constant.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = True):
        self.data = _arr(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._bwd = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item: expected a scalar, got shape {self.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Var(shape={self.shape})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return _add(self, lift(other))

    def __radd__(self, other):
        return _add(lift(other), self)

    def __sub__(self, other):
        return _add(self, _neg(lift(other)))

    def __rsub__(self, other):
        return _add(lift(other), _neg(self))

    def __neg__(self):
        return _neg(self)

    def __mul__(self, other):
        return _mul(self, lift(other))

    def __rmul__(self, other):
        return _mul(lift(other), self)

    def __truediv__(self, other):
        return _div(self, lift(other))

    def __rtruediv__(self, other):
        return _div(lift(other), self)

    def __matmul__(self, other):
        return _matmul(self, lift(other))

    def __abs__(self):
        return self.abs()

    # -- elementwise nonlinearities -------------------------------------

    def tanh(self):
        t = np.tanh(self.data)
        return _node(t, (self,), lambda g, v: (g * (1.0 - t * t),))

    def relu(self):
        mask = self.data > 0.0
        return _node(np.where(mask, self.data, 0.0), (self,), lambda g, v: (g * mask,))

    def leaky_relu(self, alpha: float = 0.2):
        slope = np.where(self.data > 0.0, 1.0, alpha)
        return _node(self.data * slope, (self,), lambda g, v: (g * slope,))

    def sigmoid(self):
        s = _sigmoid(self.data)
        return _node(s, (self,), lambda g, v: (g * s * (1.0 - s),))

    def softplus(self):
        # log(1 + exp(x)), computed without overflow
        x = self.data
        out = np.logaddexp(0.0, x)
        return _node(out, (self,), lambda g, v: (g * _sigmoid(x),))

    def abs(self):
        # subgradient 0 at exactly 0
        sign = np.sign(self.data)
        return _node(np.abs(self.data), (self,), lambda g, v: (g * sign,))

    def square(self):
        return _node(self.data * self.data, (self,), lambda g, v: (g * 2.0 * self.data,))

    def sqrt(self):
        if np.any(self.data < 0.0):
            raise NumericsError("sqrt: negative input")
        root = np.sqrt(self.data)
        # subgradient 0 at exactly 0 (true one-sided derivative is +inf)
        safe = np.where(root > 0.0, root, 1.0)
        back = np.where(root > 0.0, 0.5 / safe, 0.0)
        return _node(root, (self,), lambda g, v: (g * back,))

    def clip_max(self, bound: float):
        """Elementwise min with a constant; gradient flows only where the
        variable branch is strictly smaller (zero at an exact tie)."""
        mask = self.data < bound
        return _node(np.minimum(self.data, bound), (self,), lambda g, v: (g * mask,))

    # -- reductions and structure ---------------------------------------

    def sum(self, axis=None):
        out = np.sum(self.data, axis=axis)
        shape = self.shape

        def bwd(g, v):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

        return _node(out, (self,), bwd)

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def cols(self, start: int, stop: int):
        """Column slice of a 2-d array."""
        if self.ndim != 2:
            raise ShapeMismatch(f"cols: expected a 2-d array, got shape {self.shape}")
        sl = self.data[:, start:stop]
        shape = self.shape

        def bwd(g, v):
            full = np.zeros(shape)
            full[:, start:stop] = g
            return (full,)

        return _node(sl, (self,), bwd)


def lift(x) -> Var:
    """A Var as is; anything else as a constant."""
    return x if isinstance(x, Var) else Var(x, requires_grad=False)


def _node(data, parents, bwd) -> Var:
    """Op result: it joins the graph iff some parent requires a gradient."""
    out = Var(data)
    for p in parents:
        if p.requires_grad:
            out._parents = parents
            out._bwd = bwd
            return out
    out.requires_grad = False
    return out


# -- binary ops ---------------------------------------------------------


def _binary_mode(op: str, a: Var, b: Var, allow_row: bool = False) -> str:
    if a.shape == b.shape:
        return "same"
    if b.ndim == 0:
        return "b0"
    if a.ndim == 0:
        return "a0"
    if allow_row and a.ndim == 2 and b.shape == (a.shape[1],):
        return "row"
    raise ShapeMismatch(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _add(a: Var, b: Var) -> Var:
    mode = _binary_mode("add", a, b, allow_row=True)
    out = a.data + b.data

    def bwd(g, v):
        ga = g if mode in ("same", "row", "b0") else g.sum()
        if mode == "same":
            gb = g
        elif mode == "b0":
            gb = g.sum()
        elif mode == "a0":
            gb = g
        else:  # row bias over matrix rows
            gb = g.sum(axis=0)
        return ga, gb

    return _node(out, (a, b), bwd)


def _neg(a: Var) -> Var:
    return _node(-a.data, (a,), lambda g, v: (-g,))


def _mul(a: Var, b: Var) -> Var:
    mode = _binary_mode("mul", a, b)
    out = a.data * b.data

    def bwd(g, v):
        ga = g * b.data
        gb = g * a.data
        if mode == "b0":
            gb = gb.sum()
        elif mode == "a0":
            ga = ga.sum()
        return ga, gb

    return _node(out, (a, b), bwd)


def _div(a: Var, b: Var) -> Var:
    mode = _binary_mode("div", a, b)
    if np.min(np.abs(b.data)) < DIV_GUARD:
        raise NumericsError(f"div: denominator magnitude below {DIV_GUARD}")
    out = a.data / b.data

    def bwd(g, v):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        if mode == "b0":
            gb = gb.sum()
        elif mode == "a0":
            ga = ga.sum()
        return ga, gb

    return _node(out, (a, b), bwd)


def _matmul(a: Var, b: Var) -> Var:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = a.data @ b.data

    def bwd(g, v):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _node(out, (a, b), bwd)


def concat(parts, axis: int = 0) -> Var:
    """Concatenate along an axis; backward splits the gradient."""
    parts = [lift(p) for p in parts]
    if not parts:
        raise ShapeMismatch("concat: empty input list")
    base = list(parts[0].shape)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != len(base) or any(
            o != b for i, (o, b) in enumerate(zip(other, base)) if i != axis
        ):
            raise ShapeMismatch(
                f"concat: incompatible shapes {[tuple(q.shape) for q in parts]} on axis {axis}"
            )
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]

    def bwd(g, v):
        grads, off = [], 0
        for s in sizes:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(off, off + s)
            grads.append(g[tuple(idx)])
            off += s
        return tuple(grads)

    return _node(out, tuple(parts), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        pos = 1.0 / (1.0 + np.exp(-np.maximum(x, 0.0)))
        ex = np.exp(np.minimum(x, 0.0))
        neg = ex / (1.0 + ex)
    return np.where(x >= 0.0, pos, neg)


# -- backward pass --------------------------------------------------------


def _toposort(root: Var):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad:
                stack.append((p, False))
    return order


def _accumulate(node: Var, g) -> None:
    if node.grad is None:
        # the first contribution is stored as a fresh array equal to
        # zeros + g: ops may hand one array to several parents (add passes g
        # to both), and the addition turns -0.0 into 0.0
        node.grad = np.add(g, 0.0, out=np.empty_like(node.data))
    else:
        node.grad += g


def backward(root: Var, seed=None) -> None:
    """Accumulate d(root)/d(node) into .grad for the root and every node
    under it that requires a gradient; constants below the root get none.

    `seed` is the cotangent at the root; it defaults to 1 and then the root
    must be a scalar.
    """
    if seed is None:
        if root.data.size != 1:
            raise ShapeMismatch(
                f"backward: root must be scalar without a seed, got shape {root.shape}"
            )
        seed = np.ones_like(root.data)
    else:
        seed = _arr(seed)
        if seed.shape != root.shape:
            raise ShapeMismatch(
                f"backward: seed shape {seed.shape} != root shape {root.shape}"
            )
    order = _toposort(root)
    for node in order:
        node.grad = None
    _accumulate(root, seed)
    for node in reversed(order):
        if node._bwd is None:
            continue
        parent_grads = node._bwd(node.grad, node)
        for parent, g in zip(node._parents, parent_grads):
            if parent.requires_grad:
                _accumulate(parent, g)


def grad(root: Var, inputs) -> list[np.ndarray]:
    """Gradients of a scalar root w.r.t. the given leaf Vars."""
    backward(root)
    return [np.array(v.grad) for v in inputs]


def evaluate_with_gradients(f, inputs) -> tuple[float, list[np.ndarray]]:
    """Run f on fresh leaves and return (scalar value, gradients per input)."""
    leaves = [Var(x) for x in inputs]
    out = f(*leaves)
    if not isinstance(out, Var):
        raise TypeError(f"evaluate_with_gradients: f returned {type(out).__name__}, not Var")
    value = out.item()
    return value, grad(out, leaves)


def finite_diff_gradient(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array.

    This is the test oracle: it never touches the graph engine.
    """
    if h <= 0:
        raise ValueError("finite_diff_gradient: h must be positive")
    x = _arr(x)
    out = np.zeros_like(x)
    flat = out.reshape(-1)
    base = x.copy()
    for i in range(x.size):
        idx = np.unravel_index(i, x.shape)
        orig = base[idx]
        base[idx] = orig + h
        fp = float(f(base))
        base[idx] = orig - h
        fm = float(f(base))
        base[idx] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericsError(f"finite_diff_gradient: non-finite evaluation at index {idx}")
        flat[i] = (fp - fm) / (2.0 * h)
    return out


def jacobian(f, z) -> np.ndarray:
    """Jacobian of a vector function at z: row i is the gradient of output i.

    Output and input are flattened row-major, so the result has shape
    (output.size, z.size). One forward pass, one seeded backward per row.
    """
    leaf = Var(z)
    out = f(leaf)
    if not isinstance(out, Var):
        raise TypeError(f"jacobian: f returned {type(out).__name__}, not Var")
    m, n = out.data.size, leaf.data.size
    jac = np.zeros((m, n))
    for i in range(m):
        seed = np.zeros(out.shape)
        seed.reshape(-1)[i] = 1.0
        backward(out, seed=seed)
        jac[i] = leaf.grad.reshape(-1)
    return jac
