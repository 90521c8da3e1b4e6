"""Shape transfer between the yarn model and its volume mesh.

Mesh to yarn is plain barycentric interpolation.  Yarn to mesh solves a
least-squares reconstruction: per-element deformation-gradient targets are
aggregated from segment frames (rotation logs and stretches averaged
separately, weighted by embedded length) and combined with a mass-weighted
positional anchor.  The same prefactored system, fed with zero gradient
targets, transfers second-difference acceleration vectors for the inertia
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import material as mat

MASS_ANCHOR_WEIGHT = 0.1      # positional regularizer weight in the y2v solve
FILL_WEIGHT = 1.0             # gradient-target weight on elements without yarn


def v2y(embedding, node_positions):
    """Yarn vertex positions interpolated from mesh node positions."""
    return embedding.interp @ np.asarray(node_positions, dtype=float).reshape(-1, 3)


# ---------------------------------------------------------------------------
# segment frames and deformation gradients


def deformed_segment_normals(model, deformed):
    """Material normals carried onto the deformed segment directions.

    Each polyline first gets its best-fit rotation (rest to deformed, via
    the orthogonal Procrustes solution); each segment then corrects that
    rotation by the minimal rotation aligning the co-rotated rest direction
    with the actual deformed direction.  A rigidly moved polyline therefore
    reproduces the rigidly moved rest normals exactly, and no twist about
    the segment axis is ever introduced.
    """
    if model.segment_normals is None:
        raise ValueError("rest segment normals not computed")
    deformed = np.asarray(deformed, dtype=float)
    rest = model.rest_vertices
    out = np.empty_like(model.segment_normals)
    for pi, run in enumerate(model.polylines):
        P = rest[run] - rest[run].mean(axis=0)
        Q = deformed[run] - deformed[run].mean(axis=0)
        R = mat.project_so3(Q.T @ P)       # best rigid rotation rest -> deformed
        for si in model.polyline_segments(pi):
            a, b = model.segments[si]
            dbar = rest[b] - rest[a]
            dbar = dbar / np.linalg.norm(dbar)
            d = deformed[b] - deformed[a]
            nd = np.linalg.norm(d)
            if nd < 1e-12:
                raise ValueError(f"segment {si} degenerate in deformed pose")
            d = d / nd
            carry = R @ dbar
            align = mat.minimal_rotation(carry, d)
            out[si, 0] = align @ (R @ model.segment_normals[si, 0])
            out[si, 1] = align @ (R @ model.segment_normals[si, 1])
    return out


def yarn_segment_f(model, deformed, normals=None):
    """Per-segment deformation gradients (nS, 3, 3).

    F maps the rest frame [d̄, n̄1, n̄2] onto the deformed frame
    [d, n1, n2]; the normals stay unit length, so all cross-section
    stretch is ignored and F captures axial stretch plus rotation.
    """
    deformed = np.asarray(deformed, dtype=float)
    if normals is None:
        normals = deformed_segment_normals(model, deformed)
    rest = model.rest_vertices
    F = np.empty((model.n_segments, 3, 3))
    for si, (a, b) in enumerate(model.segments):
        rest_frame = np.column_stack([
            rest[b] - rest[a],
            model.segment_normals[si, 0],
            model.segment_normals[si, 1],
        ])
        def_frame = np.column_stack([
            deformed[b] - deformed[a],
            normals[si, 0],
            normals[si, 1],
        ])
        F[si] = def_frame @ np.linalg.inv(rest_frame)
    return F


def segment_rotation_stretch(F):
    """Split segment gradients F (B, 3, 3) into rotation logs (B, 3) and
    stretches (B, 3, 3), with the rotations from one batched SVD.

    Raises on a non-positive determinant, which would mean a reflected or
    collapsed segment frame, naming the first such segment.
    """
    bad = ~(np.linalg.det(F) > 0.0)
    if bad.any():
        raise ValueError(f"segment {np.argmax(bad)} has non-positive deformation determinant")
    U, _, W = mat._svd_rv_lapack(F)
    R = U @ np.swapaxes(W, 1, 2)
    S = np.swapaxes(R, 1, 2) @ F
    S = 0.5 * (S + np.swapaxes(S, 1, 2))
    return np.array([mat.unskew(mat.rotation_log(r)) for r in R]), S


@dataclass
class TargetDeformation:
    """Per-element deformation-gradient targets from one yarn frame."""

    per_element_f: np.ndarray   # (nE, 3, 3); fill values on uncovered elements
    covered: np.ndarray         # (nE,) bool, True where yarn length is embedded
    frame: int = -1


def element_targets(mesh, embedding, model, deformed, frame=-1):
    """Aggregate segment deformations into per-element target gradients.

    Rotation logs and stretches are averaged separately, weighted by the
    rest length each piece embeds in the element, and recombined as
    exp(mean log rotation) @ mean stretch.  Elements without yarn receive a
    fill value: the aggregate of their voxel if it has yarn elsewhere, else
    the average over face neighbors, propagated breadth-first.
    """
    deformed = np.asarray(deformed, dtype=float)
    normals = deformed_segment_normals(model, deformed)
    omega, stretch = segment_rotation_stretch(yarn_segment_f(model, deformed, normals))

    nE = mesh.n_elements
    w_elem = np.zeros(nE)
    om_elem = np.zeros((nE, 3))
    st_elem = np.zeros((nE, 3, 3))
    piece_w = (embedding.piece_t1 - embedding.piece_t0) * model.rest_lengths[embedding.piece_seg]
    np.add.at(w_elem, embedding.piece_elem, piece_w)
    np.add.at(om_elem, embedding.piece_elem, piece_w[:, None] * omega[embedding.piece_seg])
    np.add.at(st_elem, embedding.piece_elem, piece_w[:, None, None] * stretch[embedding.piece_seg])

    covered = w_elem > 1e-14
    om_elem[covered] /= w_elem[covered, None]
    st_elem[covered] /= w_elem[covered, None, None]

    if not np.all(covered):
        # fill pass 1: aggregate per voxel
        n_vox = len(mesh.voxels)
        wv = np.zeros(n_vox)
        ov = np.zeros((n_vox, 3))
        sv = np.zeros((n_vox, 3, 3))
        vox_of_piece = mesh.tet_voxel[embedding.piece_elem]
        np.add.at(wv, vox_of_piece, piece_w)
        np.add.at(ov, vox_of_piece, piece_w[:, None] * omega[embedding.piece_seg])
        np.add.at(sv, vox_of_piece, piece_w[:, None, None] * stretch[embedding.piece_seg])
        have = np.ones(nE, dtype=bool)
        for e in np.flatnonzero(~covered):
            c = mesh.tet_voxel[e]
            if wv[c] > 1e-14:
                om_elem[e] = ov[c] / wv[c]
                st_elem[e] = sv[c] / wv[c]
            else:
                have[e] = False
        if not np.all(have):
            # fill pass 2: breadth-first averaging over face neighbors
            from .volmesh import element_adjacency

            A = element_adjacency(mesh)
            frontier = set(np.flatnonzero(have))
            missing = set(np.flatnonzero(~have))
            while missing:
                ready = []
                for e in sorted(missing):
                    nbr = [n for n in A[e].indices if have[n]]
                    if nbr:
                        ready.append((e, nbr))
                if not ready:
                    raise ValueError("isolated elements with no yarn anywhere nearby")
                for e, nbr in ready:
                    om_elem[e] = om_elem[nbr].mean(axis=0)
                    st_elem[e] = st_elem[nbr].mean(axis=0)
                for e, _ in ready:
                    have[e] = True
                    missing.discard(e)

    F = np.einsum(
        "eij,ejk->eik",
        np.stack([mat.rotation_exp(mat.skew(o)) for o in om_elem]),
        st_elem,
    )
    if np.any(np.linalg.det(F[covered]) <= 0.0):
        raise ValueError("covered element received a non-positive target determinant")
    return TargetDeformation(per_element_f=F, covered=covered, frame=frame)


# ---------------------------------------------------------------------------
# yarn-to-mesh solve


class Y2VOperator:
    """Prefactored least-squares reconstruction of mesh poses from yarn poses.

    Minimizes over node positions x the y2v objective

        sum_e w_e V_e || F_e(x) - T_e ||^2  +  alpha || M_y (N x - x_yarn) ||^2

    with w_e = 1 on covered elements and FILL_WEIGHT on uncovered ones (the
    fill keeps the system positive definite when some elements carry no
    yarn).  The objective is quadratic and the three coordinates decouple,
    so its Hessian is one scalar matrix, factored once and solved for all
    three right-hand sides in one call.  Material fitting uses the same
    objective as its pose-matching loss.
    """

    def __init__(self, mesh, embedding, model, alpha=MASS_ANCHOR_WEIGHT,
                 fill_weight=FILL_WEIGHT):
        self.mesh = mesh
        self.embedding = embedding
        self.model = model
        self.alpha = float(alpha)
        self.fill_weight = float(fill_weight)
        self._anchor = 2.0 * self.alpha * (
            embedding.interp.T @ sp.diags(embedding.yarn_mass**2) @ embedding.interp)
        self._factor = None

    def weights(self, covered):
        """Per-element target weights w_e V_e for a coverage mask."""
        return np.where(covered, 1.0, self.fill_weight) * self.mesh.volume

    def matrix(self, covered):
        """Objective Hessian, one (nV, nV) matrix acting on each coordinate."""
        return (self.mesh.laplacian(2.0 * self.weights(covered)) + self._anchor).tocsc()

    def _factorize(self, covered):
        if self.alpha <= 0.0:
            # translations lie exactly in the elastic null space
            raise ValueError("y2v system is singular without a positive mass anchor")
        key = self.weights(covered).tobytes()
        if self._factor is None or self._factor[0] != key:
            try:
                solve = spla.splu(self.matrix(covered)).solve
            except RuntimeError as exc:
                raise ValueError(f"y2v system is singular: {exc}") from exc
            self._factor = (key, solve)
        return self._factor[1]

    def solve_with_targets(self, targets, yarn_pose):
        """Node positions minimizing the objective: the objective is
        quadratic, so they solve (matrix) x = -gradient at x = 0."""
        solve = self._factorize(targets.covered)
        return solve(-self.gradient(np.zeros((self.mesh.n_nodes, 3)), targets, yarn_pose))

    def transfer(self, deformed, frame=-1):
        """y2v: reconstruct mesh node positions for one yarn pose."""
        deformed = np.asarray(deformed, dtype=float)
        targets = element_targets(self.mesh, self.embedding, self.model, deformed, frame)
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
        wv = self.weights(targets.covered)
        val = float(np.sum(wv * np.sum((F - targets.per_element_f) ** 2, axis=(1, 2))))
        d = self.embedding.yarn_mass[:, None] * (self.embedding.interp @ x - yarn_pose)
        return val + self.alpha * float(np.sum(d * d))

    def gradient(self, x, targets, yarn_pose):
        """Gradient of the objective in the node positions x, (nV, 3)."""
        x = np.asarray(x, dtype=float).reshape(-1, 3)
        F = self.mesh.deformation_gradients(x)
        P = 2.0 * self.weights(targets.covered)[:, None, None] * (F - targets.per_element_f)
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
