"""Yarn-level model: polyline geometry and a small elastic-rod simulator
used to produce ground-truth pose sequences.

Vertex positions are the only degrees of freedom; the rods carry no twist.
The simulator is deliberately simple: per-segment stretch springs,
second-neighbor distance springs as a bending stand-in, quadratic
vertex-vertex contact penalties, and optional plane/sphere colliders,
integrated with implicit Euler through a projective local/global loop.
Springs and contacts are one stacked set of vertex pairs, each with a
weight and a goal length, so a round gathers and scatters every pair at
once.  It exists to generate plausible desk-scale motion, not to model
real rods.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .pdsolver import collider_targets, surface_targets


class YarnModel:
    """Polyline yarn geometry in its rest state.

    polylines are runs of vertex indices; consecutive pairs form segments.
    linear_density is mass per unit length, constant along each polyline.
    """

    def __init__(self, rest_vertices, polylines, linear_density=1.0, radius=None):
        self.rest_vertices = np.array(rest_vertices, dtype=float)
        if self.rest_vertices.ndim != 2 or self.rest_vertices.shape[1] != 3:
            raise ValueError("rest vertices must be (n, 3)")
        if not np.all(np.isfinite(self.rest_vertices)):
            raise ValueError("non-finite rest vertex")
        self.polylines = [np.asarray(p, dtype=int) for p in polylines]
        if not self.polylines:
            raise ValueError("yarn must contain at least one polyline")
        n = len(self.rest_vertices)
        segs, seg_poly = [], []
        for pi, run in enumerate(self.polylines):
            if run.ndim != 1 or len(run) < 2:
                raise ValueError(f"polyline {pi} must list at least two vertices")
            if run.min() < 0 or run.max() >= n:
                raise ValueError(f"polyline {pi} references a missing vertex")
            for a, b in zip(run[:-1], run[1:]):
                segs.append((a, b))
                seg_poly.append(pi)
        self.segments = np.array(segs, dtype=int)
        self.segment_poly = np.array(seg_poly, dtype=int)
        rl = np.linalg.norm(
            self.rest_vertices[self.segments[:, 1]] - self.rest_vertices[self.segments[:, 0]],
            axis=1,
        )
        bad = np.flatnonzero(rl < 1e-12)
        if len(bad):
            raise ValueError(f"zero-length rest segment at index {bad[0]}")
        self.rest_lengths = rl
        dens = np.asarray(linear_density, dtype=float)
        if dens.ndim == 0:
            dens = np.full(len(self.polylines), float(dens))
        if len(dens) != len(self.polylines):
            raise ValueError("need one linear density per polyline")
        self.linear_density = dens
        self.radius = float(radius) if radius is not None else 0.25 * float(np.median(rl))

    @property
    def n_vertices(self):
        return len(self.rest_vertices)

    @property
    def n_segments(self):
        return len(self.segments)

    def segment_density(self):
        return self.linear_density[self.segment_poly]

    def vertex_mass(self):
        """Half of each incident segment's mass, per vertex."""
        m = np.zeros(self.n_vertices)
        sm = 0.5 * self.rest_lengths * self.segment_density()
        np.add.at(m, self.segments[:, 0], sm)
        np.add.at(m, self.segments[:, 1], sm)
        return m


# ---------------------------------------------------------------------------
# sequences


@dataclass
class YarnSequence:
    """Ordered deformed frames of one yarn model."""

    frames: np.ndarray                  # (nF, nY, 3)
    dt: float
    pins: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    external_force: np.ndarray = None   # (nF, nY, 3) or None

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=float)
        self.pins = np.asarray(self.pins, dtype=int)
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")

    @property
    def n_frames(self):
        return self.frames.shape[0]

    def force(self, i):
        if self.external_force is None:
            return np.zeros_like(self.frames[0])
        return self.external_force[i]


# ---------------------------------------------------------------------------
# rod simulator


@dataclass
class RodParams:
    """Spring and contact parameters for the yarn simulator."""

    stretch_stiffness: float = 500.0
    bend_stiffness: float = 0.5
    contact_stiffness: float = 200.0
    damping: float = 0.995            # velocity retained per step
    pd_iters: int = 24
    contacts: bool = True


def _second_neighbors(model):
    return np.concatenate([np.c_[run[:-2], run[2:]] for run in model.polylines]).astype(int)


def _incidence(n, pairs):
    """Signed (n, m) incidence S of pair differences: S^T x = x[j] - x[i]."""
    m = len(pairs)
    return sp.csr_matrix((np.repeat([1.0, -1.0], m),
                          (pairs[:, ::-1].T.reshape(-1), np.tile(np.arange(m), 2))),
                         shape=(n, m))


def _pair_keys(pairs, n):
    """Order-free integer key of each vertex pair."""
    s = np.sort(pairs, axis=1)
    return s[:, 0] * n + s[:, 1]


def simulate_yarn(model, steps, dt, forces=None, pins=None, pin_targets=None,
                  params=None, colliders=()):
    """Implicit-Euler rod dynamics, returned as a YarnSequence.

    forces: (nY, 3) constant or (steps, nY, 3) per step, in Newtons.
    pins: vertex indices held at pin_targets (per-step (steps, nP, 3) or
    constant (nP, 3); defaults to their rest positions).  A force or pin
    path of any other length raises ValueError before the first step.
    colliders: iterable of ("plane", point, normal) or ("sphere", center,
    radius) tuples that vertices may not penetrate.

    Every spring and contact is one pair in one stacked set: the segments,
    the second neighbors and that step's contacts, with one signed
    incidence S, one weight w and one goal length per pair (the rest length
    for a spring, max(length, radius) for a contact).  The matrix is
    M/dt^2 + S diag(w) S^T plus each collider's diagonal, restricted to the
    free vertices; it is factorized once for the springs and again only on
    a step with contacts or collider rows.  A local/global round gathers
    d = S^T x, and scatters rhs = c + S_free (w goal/|d| d) with
    c = M/dt^2 xhat_free - A_fp x_pins made once per step.

    The step blows up (and raises) if any vertex moves more than ten times
    the longest rest segment within one step.
    """
    params = params or RodParams()
    n = model.n_vertices
    rest = model.rest_vertices
    x = rest.copy()
    v = np.zeros((n, 3))
    mass = model.vertex_mass()
    inertia = mass / dt**2

    pins = np.asarray(pins, dtype=int) if pins is not None else np.empty(0, dtype=int)
    free = np.setdiff1d(np.arange(n), pins)
    row = np.full(n, -1)
    row[free] = np.arange(len(free))
    pin_path = np.broadcast_to(
        rest[pins] if pin_targets is None else np.asarray(pin_targets, dtype=float),
        (steps, len(pins), 3))
    force_path = np.broadcast_to(
        0.0 if forces is None else np.asarray(forces, dtype=float), (steps, n, 3))

    springs = np.concatenate([model.segments, _second_neighbors(model)])
    spring_rest = np.linalg.norm(rest[springs[:, 1]] - rest[springs[:, 0]], axis=1)
    spring_w = np.repeat([params.stretch_stiffness, params.bend_stiffness],
                         [model.n_segments, len(springs) - model.n_segments]) / spring_rest
    connected = _pair_keys(springs, n)
    w_contact = params.contact_stiffness / max(model.radius, 1e-12)

    def system(contacts, coll):
        """Gather, scatter, weights, goal bounds, pin block and solver of the
        springs plus these contacts and collider rows.  A goal is its length
        clipped to [lo, hi]: the rest length for a spring, at least the
        radius for a contact."""
        S = _incidence(n, np.concatenate([springs, contacts]))
        w = np.concatenate([spring_w, np.full(len(contacts), w_contact)])
        lo = np.concatenate([spring_rest, np.full(len(contacts), model.radius)])
        hi = np.concatenate([spring_rest, np.full(len(contacts), np.inf)])
        A = sp.diags(inertia) + S @ sp.diags(w) @ S.T
        for _, idx, _ in coll:
            A = A + sp.csr_matrix((np.full(len(idx), w_contact), (idx, idx)), shape=(n, n))
        A = A[free]
        return (S.T.tocsr(), S[free], w, lo, hi, A[:, pins],
                spla.factorized(A[:, free].tocsc()))

    # the spring system is factorized once and reused by every step that
    # adds no contact or collider rows
    base = system(np.empty((0, 2), dtype=int), [])
    blow = 10.0 * float(model.rest_lengths.max())
    frames = np.empty((steps, n, 3))
    rec_forces = np.empty((steps, n, 3))

    for step in range(steps):
        f_ext = force_path[step]
        xhat = x + dt * v + dt**2 * f_ext / mass[:, None]

        # contact pairs active for this whole step, found on the prediction
        if params.contacts and model.radius > 0.0:
            # imported here: scipy.spatial adds about 0.14 s to every
            # process, and only yarn contacts use it
            from scipy.spatial import cKDTree

            raw = cKDTree(xhat).query_pairs(model.radius, output_type="ndarray")
            contacts = raw[~np.isin(_pair_keys(raw, n), connected)]
        else:
            contacts = np.empty((0, 2), dtype=int)

        # per collider, the free vertices it holds for this whole step, found
        # on the prediction: their rows in the free system, their indices
        coll = []
        for col in colliders:
            idx = collider_targets(xhat, col)[0]
            idx = idx[row[idx] >= 0]
            if len(idx):
                coll.append((row[idx], idx, col))

        ST, S_free, w, lo, hi, Afp, solve = (
            system(contacts, coll) if len(contacts) or coll else base)
        xp = pin_path[step]
        xi = xhat.copy()
        xi[pins] = xp
        const = inertia[free, None] * xhat[free] - Afp @ xp
        for _ in range(params.pd_iters):
            d = ST @ xi
            ln = np.sqrt(np.einsum("ij,ij->i", d, d))
            goal = np.minimum(np.maximum(ln, lo), hi)
            rhs = const + S_free @ ((w * goal / np.maximum(ln, 1e-12))[:, None] * d)
            for r, idx, col in coll:
                # the surface projection while inside, held where it is once
                # separated
                rhs[r] += w_contact * surface_targets(xi[idx], col)
            xi[free] = solve(rhs)

        if not np.all(np.isfinite(xi)) or np.abs(xi - x).max() > blow:
            err = RuntimeError(f"yarn simulation diverged at frame {step}")
            # frames computed so far ride along so callers can keep them
            err.partial = YarnSequence(
                frames=frames[:step].copy(), dt=dt, pins=pins,
                external_force=rec_forces[:step].copy())
            raise err
        v = params.damping * (xi - x) / dt
        x = xi
        frames[step] = x
        rec_forces[step] = f_ext

    return YarnSequence(frames=frames, dt=dt, pins=pins, external_force=rec_forces)


# ---------------------------------------------------------------------------
# yarn geometry factories


def straight_strand(n_vertices, length=1.0, axis=(1.0, 0.0, 0.0), origin=(0.0, 0.0, 0.0),
                    linear_density=1.0, radius=None):
    axis = np.asarray(axis, float) / np.linalg.norm(axis)
    t = np.linspace(0.0, length, n_vertices)
    pts = np.asarray(origin, float) + t[:, None] * axis
    return YarnModel(pts, [np.arange(n_vertices)], linear_density, radius)


def rib_patch(courses=10, wales=40, course_spacing=0.01, wale_spacing=0.01,
              amplitude=0.004, rib_period=4, linear_density=0.002, radius=None):
    """Rib-texture proxy patch: parallel wavy courses with alternating phase.

    Vertices undulate out of plane with a phase that flips every rib_period
    wales and from course to course, giving the characteristic ridged
    texture without modeling actual loop topology.
    """
    pts = []
    runs = []
    vid = 0
    for c in range(courses):
        run = []
        phase = np.pi * (c % 2)
        for w in range(wales):
            x = w * wale_spacing
            y = c * course_spacing
            z = amplitude * np.sin(np.pi * (w // rib_period) + phase)
            z += 0.35 * amplitude * np.sin(2.0 * np.pi * w / rib_period + phase)
            pts.append((x, y, z))
            run.append(vid)
            vid += 1
        runs.append(np.array(run))
    return YarnModel(np.array(pts), runs, linear_density, radius)


# ---------------------------------------------------------------------------
# file formats

FRAMES = "frames.npy"


def write_yarn(model, path, comment=None):
    """Text format: `yarn <nV> <nP>` header, `v x y z` lines, `l i0 i1 ...` lines."""
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(f"yarn {model.n_vertices} {len(model.polylines)}\n")
        for p in model.rest_vertices:
            fh.write(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        for run in model.polylines:
            fh.write("l " + " ".join(str(int(i)) for i in run) + "\n")


def read_yarn(path, linear_density=1.0, radius=None):
    verts, runs = [], []
    nv = npoly = None
    with open(path) as fh:
        for line in fh:
            tok = line.split()
            if not tok or tok[0] == "#":
                continue
            if tok[0] == "yarn":
                nv, npoly = map(int, tok[1:])
            elif tok[0] == "v":
                verts.append([float(t) for t in tok[1:4]])
            elif tok[0] == "l":
                runs.append([int(t) for t in tok[1:]])
    if nv is None or len(verts) != nv or len(runs) != npoly:
        raise ValueError(f"malformed yarn file {path}")
    return YarnModel(np.array(verts), [np.array(r) for r in runs], linear_density, radius)


def write_sequence(model, seq, directory, comment=None):
    """Write rest.yarn, the (nF, nY, 3) float64 frames.npy, sequence.json and,
    with recorded forces, external_force.npy."""
    os.makedirs(directory, exist_ok=True)
    write_yarn(model, os.path.join(directory, "rest.yarn"), comment=comment)
    np.save(os.path.join(directory, FRAMES), seq.frames)
    meta = {
        "dt": seq.dt,
        "rest": "rest.yarn",
        "frames": FRAMES,
        "pins": [int(i) for i in seq.pins],
        "linear_density": [float(v) for v in model.linear_density],
        "radius": model.radius,
    }
    if seq.external_force is not None:
        np.save(os.path.join(directory, "external_force.npy"), seq.external_force)
        meta["external_force"] = "external_force.npy"
    if comment:
        meta["comment"] = comment
    with open(os.path.join(directory, "sequence.json"), "w") as fh:
        json.dump(meta, fh, indent=1)


def read_sequence(directory):
    """Read what write_sequence wrote; returns (model, sequence)."""
    with open(os.path.join(directory, "sequence.json")) as fh:
        meta = json.load(fh)
    frames = os.path.join(directory, FRAMES)
    if not os.path.exists(frames):
        raise ValueError(f"sequence {directory} has no {FRAMES}; a sequence written "
                         "as one file per frame must be regenerated")
    model = read_yarn(
        os.path.join(directory, meta["rest"]),
        linear_density=np.asarray(meta.get("linear_density", 1.0)),
        radius=meta.get("radius"),
    )
    ext = None
    if "external_force" in meta:
        ext = np.load(os.path.join(directory, meta["external_force"]))
    return model, YarnSequence(
        frames=np.load(frames),
        dt=float(meta["dt"]),
        pins=np.asarray(meta.get("pins", []), dtype=int),
        external_force=ext,
    )
