"""Reference forms of the two-copy kernels in `qdel.machines`, for the tests to hold them to.

Each is the direct, unfactored form of a rule the package computes a shorter way:
the whole weight table of an output, the squared norms that sum over every axis but
the last, and the swap certificate built from all d^2 columns' pair sums at once.
"""

import numpy as np

from qdel.machines import BLANK_INDEX, _copy_layout, _require_copy_and_blank


def weights(outs: np.ndarray, psis: np.ndarray) -> tuple:
    """((out, <blank|_b out), (<psi|_a out, <psi|_a <blank|_b out)) of kernel outputs `outs`
    on inputs `psis`, the points on the last axis; `norms_sq` gives each entry's (B,) weights.
    An output that does not start with the copy's d levels and a blank slot is a ShapeError.

    The package reads no whole table: `_output_residuals` contracts only its blank row and
    the fidelities apply `_fidelity_operators`.
    """
    (d, n), dims = psis.shape, outs.shape[:-1]
    _require_copy_and_blank(dims, d)
    out = outs.reshape(d, dims[1], -1, n)  # (a, b, rest, B)
    bras = psis.conj()
    kept = bras[0] * out[0]  # (b, rest, B): d multiply-adds over the copy's levels a
    for a in range(1, d):
        kept += bras[a] * out[a]
    return (out, out[:, BLANK_INDEX]), (kept, kept[BLANK_INDEX])


def norms_sq(projection: np.ndarray) -> np.ndarray:
    """(B,) squared norms of a `weights` entry: sums over every axis but the last."""
    parts = projection.view(float)  # real and imaginary parts interleaved on the last axis
    sums = np.sum((parts * parts).reshape(-1, parts.shape[-1]), axis=0)
    return sums[0::2] + sums[1::2]


def swap_certificate(machine) -> tuple[np.ndarray, float, float]:
    """`_swap_certificate` of a [d, d, m] machine from a (d, d, d, d, m) array of its pair
    sums M|i j 0> + M|j i 0>, formed for every i and j and read on i <= j."""
    d, m = _copy_layout(machine)
    columns = machine.matrix[:, ::m].T.reshape(d, d, d, d, m)  # [i, j] is M|i j 0>
    index = np.arange(d)
    images = columns[index, index, index, BLANK_INDEX]
    sides = columns + columns.swapaxes(0, 1)
    sides[index[:, None], index, index[:, None], BLANK_INDEX] -= images  # |i, blank, a_j>
    sides[index[:, None], index, index, BLANK_INDEX] -= images[:, None]  # |j, blank, a_i>
    upper = np.triu_indices(d)
    deviation = np.max(np.linalg.norm(sides[upper].reshape(len(upper[0]), -1), axis=1))
    gram = images.conj() @ images.T
    return images, float(deviation), float(np.max(np.abs(gram - np.eye(d))))
