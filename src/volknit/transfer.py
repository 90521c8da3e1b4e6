"""Shape transfer between the yarn model and its volume mesh.

Mesh to yarn is plain barycentric interpolation.  Yarn to mesh solves a
least-squares reconstruction: per-element deformation-gradient targets are
aggregated from the segments' closed-form polar factors (rotation logs and
axial stretches averaged separately, weighted by embedded length) and
combined with a mass-weighted positional anchor.  The same prefactored
system, fed with zero gradient targets, transfers second-difference
acceleration vectors for the inertia estimate.  Polar factors and targets
cover all segments and elements of a pose at once; only the fill of
elements without yarn steps, one face per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import material as mat
from . import volmesh

MASS_ANCHOR_WEIGHT = 0.1      # positional regularizer weight in the y2v solve


def v2y(embedding, node_positions):
    """Yarn vertex positions interpolated from mesh node positions."""
    return embedding.interp @ np.asarray(node_positions, dtype=float).reshape(-1, 3)


# ---------------------------------------------------------------------------
# segment polar factors


def segment_polar(model, deformed):
    """Polar factors (R, S), each (nS, 3, 3), of the segment deformations.

    R is the polyline's best-fit rotation (orthogonal Procrustes, rest to
    deformed), corrected per segment by the minimal rotation aligning the
    co-rotated rest direction with the deformed one.  The rods carry no
    twist, so a segment with unit rest direction e and length ratio lam
    deforms by R S, S = I + (lam - 1) e e^T, positive definite by design.
    """
    deformed = np.asarray(deformed, dtype=float)
    if not np.all(np.isfinite(deformed)):
        raise ValueError("non-finite deformed pose")
    # polylines as rows of a zero-padded (nP, longest, 3) stack; the zeros
    # add nothing, and one batched product of the centred stacks gives each
    # polyline's Q^T P with the same bits as its own product
    count = np.array([len(run) for run in model.polylines])
    live = (np.arange(count.max()) < count[:, None])[:, :, None]
    run = np.zeros(live.shape[:2], dtype=int)
    run[live[:, :, 0]] = np.concatenate(model.polylines)

    def centred(x):
        X = np.where(live, x[run], 0.0)
        return np.where(live, X - X.sum(axis=1, keepdims=True) / count[:, None, None], 0.0)

    # best rigid rotation rest -> deformed per polyline
    M = np.swapaxes(centred(deformed), 1, 2) @ centred(model.rest_vertices)
    U, _, W = mat._svd_rv_lapack(M)
    R = (U @ np.swapaxes(W, 1, 2))[model.segment_poly]
    a, b = model.segments.T
    d = deformed[b] - deformed[a]
    nd = np.sqrt(np.einsum("si,si->s", d, d))
    if np.any(nd < 1e-12):
        raise ValueError(f"segment {np.argmax(nd < 1e-12)} degenerate in deformed pose")
    e = (model.rest_vertices[b] - model.rest_vertices[a]) / model.rest_lengths[:, None]
    R = mat.minimal_rotation(np.einsum("sij,sj->si", R, e), d / nd[:, None]) @ R
    lam = (nd / model.rest_lengths)[:, None, None]
    return R, np.eye(3) + (lam - 1.0) * (e[:, :, None] * e[:, None, :])


@dataclass
class TargetDeformation:
    """Per-element deformation-gradient targets from one yarn frame."""

    per_element_f: np.ndarray   # (nE, 3, 3); fill values on uncovered elements
    covered: np.ndarray         # (nE,) bool, True where yarn length is embedded


def element_targets(mesh, embedding, model, deformed):
    """Aggregate segment deformations into per-element target gradients.

    Rotation logs and stretches are averaged separately, weighted by the
    rest length each piece embeds in the element, and recombined as
    exp(mean log rotation) @ mean stretch.  Elements without yarn receive a
    fill value: the aggregate of their voxel if it has yarn elsewhere, else
    the average over face neighbors, propagated breadth-first in rounds.
    """
    R, S = segment_polar(model, deformed)
    seg = embedding.piece_seg
    piece_w = (embedding.piece_t1 - embedding.piece_t0) * model.rest_lengths[seg]
    # per piece, its rotation log and stretch side by side, weighted
    weighted = piece_w[:, None] * np.concatenate([mat.rotation_log(R), S.reshape(-1, 9)], 1)[seg]

    def pooled(index, n):
        """Piece weights (n,) and weighted values (n, 12) summed into n bins."""
        w, v = np.zeros(n), np.zeros((n, 12))
        np.add.at(w, index, piece_w)
        np.add.at(v, index, weighted)
        return w, v

    w, val = pooled(embedding.piece_elem, mesh.n_elements)
    covered = w > 1e-14
    # fill pass 1: an element without yarn takes the aggregate of its voxel
    vox = mesh.tet_voxel
    wv, vv = pooled(vox[embedding.piece_elem], len(mesh.voxels))
    w = np.where(covered, w, wv[vox])
    val = np.where(covered[:, None], val, vv[vox])
    have = w > 1e-14
    val[have] /= w[have, None]
    # fill pass 2: in rounds, every element still without a value takes the
    # mean over its face neighbors that have one
    A = volmesh.element_adjacency(mesh)
    while not np.all(have):
        count = A @ have.astype(float)
        ready = ~have & (count > 0.0)
        if not ready.any():
            raise ValueError("isolated elements with no yarn anywhere nearby")
        val[ready] = (A[ready][:, have] @ val[have]) / count[ready, None]
        have |= ready

    F = np.einsum("eij,ejk->eik", mat.rotation_exp(val[:, :3]), val[:, 3:].reshape(-1, 3, 3))
    if np.any(np.linalg.det(F[covered]) <= 0.0):
        raise ValueError("covered element received a non-positive target determinant")
    return TargetDeformation(per_element_f=F, covered=covered)


# ---------------------------------------------------------------------------
# yarn-to-mesh solve


class Y2VOperator:
    """Prefactored least-squares reconstruction of mesh poses from yarn poses.

    Minimizes over node positions x the y2v objective

        sum_e V_e || F_e(x) - T_e ||^2  +  alpha || M_y (N x - x_yarn) ||^2

    with every element weighted alike, whether its target is its own
    aggregate or a fill value.  The objective is quadratic and the three
    coordinates decouple, so its Hessian is one scalar matrix, the same for
    every pose, factored once and solved for all three right-hand sides in
    one call.  Material fitting uses the same objective as its
    pose-matching loss.
    """

    def __init__(self, mesh, embedding, model, alpha=MASS_ANCHOR_WEIGHT):
        self.mesh = mesh
        self.embedding = embedding
        self.model = model
        self.alpha = float(alpha)
        self._anchor = 2.0 * self.alpha * (
            embedding.interp.T @ sp.diags(embedding.yarn_mass**2) @ embedding.interp)
        self._solve = None

    def matrix(self):
        """Objective Hessian, one (nV, nV) matrix acting on each coordinate."""
        return (self.mesh.laplacian(2.0 * self.mesh.volume) + self._anchor).tocsc()

    def _factorize(self):
        if self.alpha <= 0.0:
            # translations lie exactly in the elastic null space
            raise ValueError("y2v system is singular without a positive mass anchor")
        if self._solve is None:
            try:
                self._solve = spla.splu(self.matrix()).solve
            except RuntimeError as exc:
                raise ValueError(f"y2v system is singular: {exc}") from exc
        return self._solve

    def solve_with_targets(self, targets, yarn_pose):
        """Node positions minimizing the objective: the objective is
        quadratic, so they solve (matrix) x = -gradient at x = 0."""
        zero = np.zeros((self.mesh.n_nodes, 3))
        return self._factorize()(-self.gradient(zero, targets, yarn_pose))

    def transfer(self, deformed):
        """y2v: reconstruct mesh node positions for one yarn pose."""
        deformed = np.asarray(deformed, dtype=float)
        targets = element_targets(self.mesh, self.embedding, self.model, deformed)
        return self.solve_with_targets(targets, deformed), targets

    def linear_transfer(self, vec):
        """Solve with zero gradient targets: transfers displacement-like
        yarn vectors (differences, accelerations) onto the mesh.  Constant
        vectors pass through exactly."""
        nE = self.mesh.n_elements
        zero = TargetDeformation(per_element_f=np.zeros((nE, 3, 3)),
                                 covered=np.ones(nE, dtype=bool))
        return self.solve_with_targets(zero, np.asarray(vec, dtype=float))

    def objective(self, x, targets, yarn_pose):
        """Value of the objective at node positions x."""
        x = np.asarray(x, dtype=float).reshape(-1, 3)
        F = self.mesh.deformation_gradients(x)
        d2 = np.sum((F - targets.per_element_f) ** 2, axis=(1, 2))
        val = float(np.sum(self.mesh.volume * d2))
        d = self.embedding.yarn_mass[:, None] * (self.embedding.interp @ x - yarn_pose)
        return val + self.alpha * float(np.sum(d * d))

    def gradient(self, x, targets, yarn_pose):
        """Gradient of the objective in the node positions x, (nV, 3)."""
        x = np.asarray(x, dtype=float).reshape(-1, 3)
        F = self.mesh.deformation_gradients(x)
        P = 2.0 * self.mesh.volume[:, None, None] * (F - targets.per_element_f)
        r = self.embedding.yarn_mass[:, None] ** 2 * (self.embedding.interp @ x - yarn_pose)
        return self.mesh.scatter(P) + 2.0 * self.alpha * (self.embedding.interp.T @ r)


# ---------------------------------------------------------------------------
# inertia estimate


def estimate_inertia(op, seq, i, yarn_force=None):
    """Per-node inertia target a_i for the quasi-static fitting objective.

    The second difference of the last three yarn frames is pushed through
    the linear part of the yarn-to-mesh solve, and the external force
    (mapped to nodes by the transposed interpolation matrix) is subtracted
    after scaling by dt^2 over the lumped node masses.
    """
    if i < 2:
        raise ValueError("inertia estimate needs two earlier frames")
    if op.mesh.node_mass is None:
        raise ValueError("mesh node masses not lumped yet")
    d2 = seq.frames[i] - 2.0 * seq.frames[i - 1] + seq.frames[i - 2]
    a = op.linear_transfer(d2)
    if yarn_force is None:
        yarn_force = seq.force(i)
    f_nodes = op.embedding.interp.T @ np.asarray(yarn_force, dtype=float)
    # nodes the yarn never touches carry no mass; their inertia target is
    # irrelevant downstream (always multiplied by the mass) and set to zero
    inv_m = np.zeros(op.mesh.n_nodes)
    pos = op.mesh.node_mass > 0.0
    inv_m[pos] = 1.0 / op.mesh.node_mass[pos]
    a -= seq.dt**2 * inv_m[:, None] * f_nodes
    a[~pos] = 0.0
    return a
