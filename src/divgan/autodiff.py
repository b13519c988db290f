"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run engine: arithmetic on `Var` objects records a computation
graph, `backward` replays it in reverse topological order and accumulates
gradients into the `.grad` of the graph's leaves.

Only what a gradient can flow to is recorded. A `Var` built explicitly is a
leaf that requires a gradient; an array wrapped by `lift` (every non-`Var`
operand) is a constant. An op result requires a gradient iff one of its
operands does; a result computed only from constants keeps no parents and
no backward closure, so a forward pass over constants builds no graph.
`backward` walks only nodes that require a gradient, skips the matmul and
`affine` products nobody reads, and leaves `.grad` untouched on constants,
a constant root included.

Only leaves keep a gradient. An op result holds its gradient only while
`backward` needs it: once the node has handed its contributions to its
parents, its `.grad` goes back to None and the array is freed, so a
backward pass holds the interior gradients of its frontier, not of the
whole graph (the liveness-based sharing of Chen et al., arXiv:1604.06174).

Nodes are few and fat where the networks spend their time: `affine` is one
node for a layer, its tanh or relu included, and a reduction over a
reshaped or transposed array replaces a chain of slices.

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
    "lift",
    "affine",
    "activation_grad",
    "concat",
    "backward",
    "evaluate_with_gradients",
    "finite_diff_gradient",
    "jacobian",
]

class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NumericsError(ArithmeticError):
    """Non-finite value or negative sqrt input where finiteness is promised."""


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
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Var(shape={self.shape})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return _add(self, lift(other))

    def __sub__(self, other):
        return _add(self, _neg(lift(other)))

    def __neg__(self):
        return _neg(self)

    def __mul__(self, other):
        return _mul(self, lift(other))

    def __rmul__(self, other):
        return _mul(lift(other), self)

    def __matmul__(self, other):
        return _matmul(self, lift(other))

    # -- elementwise nonlinearities -------------------------------------

    def tanh(self):
        t = np.tanh(self.data)
        return _node(t, (self,), lambda g, v: (g * activation_grad("tanh", t),))

    def relu(self):
        """max(x, 0) by np.maximum: -0.0 maps to +0.0 and NaN stays NaN. A NaN
        reaches a relu only after the values diverged, and a diverging D
        still fails at the same training step, on the finiteness checks of
        the gradients and the loss. The gradient mask is x > 0."""
        out = np.maximum(self.data, 0.0)
        return _node(out, (self,), lambda g, v: (g * activation_grad("relu", out),))

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
            full = np.empty(shape)
            full[...] = g if axis is None else np.expand_dims(g, axis)
            return (full,)

        return _node(out, (self,), bwd)

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def reshape(self, *shape):
        """The same values in another shape (numpy's reshape rules)."""
        try:
            out = self.data.reshape(shape)
        except ValueError as exc:
            raise ShapeMismatch(f"reshape: cannot reshape {self.shape} to {shape}") from exc
        in_shape = self.shape
        return _node(out, (self,), lambda g, v: (g.reshape(in_shape),))

    def transpose(self):
        """Axes reversed, as a C-ordered copy: a sum over the leading axis of
        the copy adds its rows one by one, in order, where a sum over a
        contiguous axis would sum pairwise."""
        return _node(np.ascontiguousarray(self.data.T), (self,), lambda g, v: (g.T,))


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


def _binary_mode(op: str, a: Var, b: Var, allow_row: bool = False) -> None:
    """Refuse operands outside the broadcast forms: equal shapes, a scalar
    operand, and (if allow_row) a row vector over the rows of a matrix."""
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    if not (allow_row and a.ndim == 2 and b.shape == (a.shape[1],)):
        raise ShapeMismatch(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """A broadcast result's gradient summed back to an operand's shape: the
    whole of it for a scalar, over the rows for a row vector."""
    if g.shape == shape:
        return g
    return g.sum() if shape == () else g.sum(axis=0)


def _add(a: Var, b: Var) -> Var:
    _binary_mode("add", a, b, allow_row=True)
    return _node(a.data + b.data, (a, b),
                 lambda g, v: (_reduce_to(g, a.shape), _reduce_to(g, b.shape)))


def _neg(a: Var) -> Var:
    return _node(-a.data, (a,), lambda g, v: (-g,))


def _mul(a: Var, b: Var) -> Var:
    _binary_mode("mul", a, b)
    return _node(a.data * b.data, (a, b),
                 lambda g, v: (_reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)))


def _matmul(a: Var, b: Var) -> Var:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = a.data @ b.data

    def bwd(g, v):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _node(out, (a, b), bwd)


def activation_grad(kind: str, out: np.ndarray) -> np.ndarray:
    """The derivative of a tanh or relu, read off its output t: 1 - t*t for
    tanh, the boolean mask t > 0 for relu (true exactly where the input
    was > 0; NaN gives false)."""
    if kind == "tanh":
        return 1.0 - out * out
    return out > 0.0


def affine(x, W, b, activation=None) -> Var:
    """x @ W + b as one node: a (batch, n) input, an (n, m) weight matrix and
    a length-m bias added to every row, followed by `activation` ("tanh" or
    "relu") when one is given. Backward computes g @ W.T, x.T @ g and
    g.sum(0), each only for an operand that requires a gradient.

    x may also be stacked, (..., batch, n), when W and b are constants:
    numpy then runs one 2-D product per slice, each with the bits of that
    slice's own call. A W or b that requires a gradient needs a 2-D x,
    since x.T @ g is 2-D only.

    The activation runs in place on the fresh output, and backward first
    multiplies g by the derivative read off that output: the bits of
    `affine` then `Var.tanh`/`Var.relu`. (The unfused graph stored that
    product plus 0.0, which only turns -0.0 into 0.0; every backward is
    linear in g and `_accumulate` adds 0.0 to each node's first gradient,
    so no stored gradient can tell.)
    """
    if activation not in (None, "tanh", "relu"):
        raise ValueError(f"affine: unknown activation {activation!r}")
    x, W, b = lift(x), lift(W), lift(b)
    if x.ndim < 2 or W.ndim != 2 or x.shape[-1] != W.shape[0] or b.shape != W.shape[1:]:
        raise ShapeMismatch(f"affine: incompatible shapes {x.shape}, {W.shape} and {b.shape}")
    if x.ndim > 2 and (W.requires_grad or b.requires_grad):
        raise ShapeMismatch(f"affine: a stacked input {x.shape} needs constant W and b")
    out = x.data @ W.data
    out += b.data
    if activation == "tanh":
        np.tanh(out, out=out)
    elif activation == "relu":
        np.maximum(out, 0.0, out=out)

    def bwd(g, v):
        if activation is not None:
            g = g * activation_grad(activation, out)
        return (g @ W.data.T if x.requires_grad else None,
                x.data.T @ g if W.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return _node(out, (x, W, b), bwd)


def concat(a, b) -> Var:
    """Join a and b along their last axis; backward splits the gradient."""
    a, b = lift(a), lift(b)
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeMismatch(f"concat: incompatible shapes {a.shape} and {b.shape} "
                            "on the last axis")
    split = a.shape[-1]
    return _node(np.concatenate([a.data, b.data], axis=-1), (a, b),
                 lambda g, v: (g[..., :split], g[..., split:]))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e) for x >= 0 and e / (1 + e) for x < 0, with e = exp(-|x|),
    which cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


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
    """Set .grad to d(root)/d(leaf) on every leaf under the root that
    requires a gradient; constants get none.

    Op results are visited in reverse topological order and each one's
    .grad is set back to None as soon as its contributions reach its
    parents, so after the call no op result holds a gradient (a leaf root
    holds the seed). A constant root changes nothing. Each call starts
    from zero, so a graph can be replayed with other seeds.

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
    if not root.requires_grad:
        return
    order = _toposort(root)
    for node in order:
        node.grad = None
    _accumulate(root, seed)
    for node in reversed(order):
        if node._bwd is not None:
            _pass_down(node)


def _pass_down(node: Var) -> None:
    """Add an op result's contributions to its parents' gradients and drop
    its own; returning frees the contributions too."""
    parent_grads = node._bwd(node.grad, node)
    node.grad = None
    for parent, g in zip(node._parents, parent_grads):
        if parent.requires_grad:
            _accumulate(parent, g)


def evaluate_with_gradients(f, inputs) -> tuple[float, list[np.ndarray]]:
    """Run f on fresh leaves and return (scalar value, gradients per input).
    An input that f's result does not depend on gets zeros."""
    leaves = [Var(x) for x in inputs]
    out = f(*leaves)
    if not isinstance(out, Var):
        raise TypeError(f"evaluate_with_gradients: f returned {type(out).__name__}, not Var")
    value = out.item()
    backward(out)
    return value, [np.zeros_like(v.data) if v.grad is None else np.array(v.grad)
                   for v in leaves]


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
    An output that does not depend on z gets a zero row.
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
        if leaf.grad is not None:
            jac[i] = leaf.grad.reshape(-1)
    return jac
