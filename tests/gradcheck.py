"""Gradient checkers shared by the test modules: central finite differences,
the per-node accumulation that ``backward``'s deferred gradients are
compared against, and the one-owner rule ``backward`` leaves behind."""
import numpy as np

from objcap.tensor import Tape, _Outer, _Rows, _Slice, backward


def finite_diff_check(build_loss, params, step=1e-5, tol=1e-4):
    """Compare analytic gradients of ``build_loss()`` against central differences.

    build_loss must construct the loss from scratch on every call (reading
    the current contents of ``params``) and return a scalar Tensor. Returns
    the worst relative error over all parameter entries; asserts it < tol.
    """
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = build_loss()
    backward(loss, tape)
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        analytic = analytic.reshape(-1).copy()
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = build_loss().item()
            flat[i] = orig - step
            down = build_loss().item()
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            denom = max(abs(analytic[i]), abs(fd), 1e-3)
            worst = max(worst, abs(analytic[i] - fd) / denom)
    assert worst < tol, f"gradient mismatch: max relative error {worst:.3g} >= {tol}"
    return worst


def reference_backward(loss, tape):
    """``backward`` with per-node accumulation: every gradient, a matmul
    weight's ``a.T @ g``, a take_row table's scatter and a slice's scatter
    included, is made dense and added to its input as soon as its node is
    replayed. A gradient of a kind it does not know raises TypeError."""
    loss.grad = np.ones_like(loss.data)
    for inputs, out, rule in reversed(tape.nodes):
        if out.grad is None:
            continue
        for inp, g in zip(inputs, rule(out.grad)):
            if g is None or not inp.requires_grad:
                continue
            if isinstance(g, _Outer):
                g = g.a.T @ g.g
            elif isinstance(g, _Rows):
                full = np.zeros(inp.shape)
                np.add.at(full, g.ids, g.g)
                g = full
            elif isinstance(g, _Slice):
                full = np.zeros(inp.shape)
                full[g.idx] += g.g
                g = full
            elif type(g) is not np.ndarray:
                raise TypeError(f"reference_backward: unknown gradient kind {type(g).__name__}")
            if inp.grad is None:
                inp.grad = g.copy()
            else:
                inp.grad += g


def assert_leaves_alone_hold_gradients(tape):
    """After ``backward``: every tensor produced on ``tape`` has ``grad``
    None, and no two gradients of its leaves share memory. Returns the
    leaves that hold a gradient."""
    produced = {id(out) for _, out, _ in tape.nodes}
    assert all(out.grad is None for _, out, _ in tape.nodes)
    leaves = {id(t): t for inputs, _, _ in tape.nodes for t in inputs if id(t) not in produced}
    held = [t for t in leaves.values() if t.grad is not None]
    for k, a in enumerate(held):
        for b in held[k + 1 :]:
            assert not np.shares_memory(a.grad, b.grad)
    return held


def assert_close(got, want, rel):
    """Same shape, and every entry within ``rel`` of the largest entry of ``want``."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-300)
