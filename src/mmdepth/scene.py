"""
Planar-facet scenes, ray-cast ground truth, and backscatter path extraction.

A scene is a set of coplanar convex quads with material tags plus a device
pose. The device frame is right-handed with boresight along +y and up along
+z; the virtual sensor of mmdepth.codebook lives in this frame.

Two consumers look at the same geometry through one ray-facet test,
_ray_quad's:

  ground_truth_maps     one ray through each sensor pixel, with the test in
                        its pinhole form (_pinhole_spans): a facet hits one
                        run of columns on each sensor row, at a depth that
                        is one division of a column term plus a row term;
                        the reference the estimated maps are scored
                        against. It matches _ray_quad on the unit rays to a
                        few ulp (see its docstring).
  trace_backscatter_paths
                        the radio view: a sum of point scatterers, each
                        visible one a monostatic path (delay 2*rho/c, matched
                        departure and arrival angles, channel.path_gain
                        amplitude). Each facet is subdivided into small cells
                        with a seeded scattering phase, cast against the
                        other facets (_first_hit, _ray_quad on unit rays)
                        and pruned to its visible cells before the next is
                        cut; a facet that contains the device's orthogonal
                        foot adds that foot as one more scatterer, the
                        specular return, with plane RCS
                        pi*rho^2*(1 - scatter_ratio^2). It is all that
                        survives on glass.

Every path, diffuse or specular, goes through the same free-space radar
equation, which has no parameters. Scattering strength reduces the
directive-lobe material model to a single scattered-to-incident field ratio
per material (see the material table); a cell's sigma_RCS is
BACKSCATTER_GAIN * scatter_ratio * cell_area.

The builtin scenes (BUILTIN_SCENES) live here as well, with build_scene,
which checks the scene section of a scenario config and builds it.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .channel import SPEED_OF_LIGHT, path_gain
from .codebook import SceneView, sensor_grid

__all__ = [
    "BACKSCATTER_GAIN",
    "Material",
    "MATERIALS",
    "PlanarFacet",
    "DevicePose",
    "Scene",
    "PathSet",
    "ground_truth_maps",
    "trace_backscatter_paths",
    "scene_from_dict",
    "scene_to_dict",
    "load_scene",
    "save_scene",
    "BUILTIN_SCENES",
    "build_scene",
]

_COPLANAR_TOL = 1e-9
MISS = np.inf  # ground-truth sentinel for rays that leave the scene

# Dimensionless backscatter gain of a subdivision cell relative to its
# geometric area: sigma_RCS = BACKSCATTER_GAIN * scatter_ratio * cell_area.
# A coherent flat patch of area A would contribute up to 4*pi*A/lambda^2
# (~1.26e3 for a 5 cm cell at 60 GHz); rough-surface spreading keeps the
# effective value well below that. Calibrated on the one-wall reference
# scene so the per-beam detector operates in its accurate regime.
BACKSCATTER_GAIN = 450.0


@dataclass(frozen=True)
class Material:
    """
    Surface material, reduced to one scattering descriptor: scatter_ratio,
    the scattered-to-incident electric field ratio.
    """

    name: str
    scatter_ratio: float               # scattered / incident field ratio, 0..1

    def __post_init__(self):
        if not 0.0 <= self.scatter_ratio <= 1.0:
            raise ValueError("scatter_ratio must lie in [0, 1]")


MATERIALS: dict[str, Material] = {
    m.name: m
    for m in (
        Material("concrete", 0.40),
        Material("ceilingboard", 0.30),
        Material("wood", 0.15),
        Material("floorboard", 0.15),
        Material("drywall", 0.10),
        Material("glass", 0.00),
    )
}


def _as_point(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} must be finite")
    return v


def _as_unit(v, what: str) -> np.ndarray:
    v = _as_point(v, what)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError(f"{what} must be nonzero")
    return v / n


@dataclass(frozen=True)
class PlanarFacet:
    """
    Convex coplanar quad. Vertices are (4, 3) finite world coordinates in
    winding order; coplanarity is checked to 1e-9 relative to the facet
    extent. The unit normal (it follows the winding) and the inward edge
    normals edge_normals[i] = normal x (v[i+1] - v[i]) are computed once; the
    vertices are stored read-only, so neither can drift from them.
    """

    vertices: np.ndarray
    material: Material
    normal: np.ndarray = field(init=False, repr=False, compare=False)
    edge_normals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.shape != (4, 3):
            raise ValueError("facet needs exactly 4 vertices of 3 coordinates")
        if not np.all(np.isfinite(v)):
            raise ValueError("facet vertices must be finite")
        n = np.cross(v[1] - v[0], v[2] - v[0])
        nn = np.linalg.norm(n)
        if nn == 0:
            raise ValueError("degenerate facet (collinear vertices)")
        n = n / nn
        scale = max(np.linalg.norm(v - v.mean(axis=0), axis=1).max(), 1e-30)
        off = abs(np.dot(v[3] - v[0], n))
        if off > _COPLANAR_TOL * scale:
            raise ValueError(f"facet vertices not coplanar (offset {off:.3e} m)")
        # Convexity: all cross products of consecutive edges along the normal.
        edges = np.roll(v, -1, axis=0) - v
        turns = np.cross(edges, np.roll(edges, -1, axis=0)) @ n
        if not (np.all(turns > -1e-12 * scale**2) or np.all(turns < 1e-12 * scale**2)):
            raise ValueError("facet is not convex")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "edge_normals", np.cross(n, edges))


@dataclass
class DevicePose:
    """Device position and orientation (all finite): boresight maps to +y, up to +z."""

    position: np.ndarray
    boresight: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    up: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        self.position = _as_point(self.position, "device position")
        y = _as_unit(self.boresight, "boresight")
        up = _as_unit(self.up, "up")
        z = up - np.dot(up, y) * y  # Gram-Schmidt: up need not be exactly orthogonal
        zn = np.linalg.norm(z)
        if zn < 1e-9:
            raise ValueError("up vector is parallel to boresight")
        z = z / zn
        x = np.cross(y, z)
        self.boresight = y
        self.up = z
        self._rotation = np.column_stack([x, y, z])  # device -> world

    def to_world(self, dirs_device: np.ndarray) -> np.ndarray:
        return dirs_device @ self._rotation.T

    def to_device(self, vecs_world: np.ndarray) -> np.ndarray:
        return vecs_world @ self._rotation


@dataclass
class Scene:
    """Facet list and device pose."""

    facets: list[PlanarFacet]
    device: DevicePose

    def __post_init__(self):
        if not self.facets:
            raise ValueError("scene needs at least one facet")


def _ray_quad(origin: np.ndarray, dirs: np.ndarray, facet: PlanarFacet) -> np.ndarray:
    """
    Distances t >= 0 where rays origin + t*dirs hit the facet, inf on miss.
    dirs is (..., 3) of unit vectors. The hit point p is inside when
    (p - v_i) . e_i >= -1e-12 on every edge, evaluated as
    (origin - v_i) . e_i + t * (dirs . e_i) without forming p.
    """
    v = facet.vertices
    n = facet.normal
    denom = dirs @ n
    offset = np.dot(v[0] - origin, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(np.abs(denom) > 1e-15, offset / denom, -1.0)
    hit = t > 1e-12
    for v_i, e_i in zip(v, facet.edge_normals):
        hit &= np.dot(origin - v_i, e_i) + t * (dirs @ e_i) >= -1e-12
    return np.where(hit, t, np.inf)


def _first_hit(scene: Scene, dirs: np.ndarray, skip_facet: int | None = None) -> np.ndarray:
    """
    Distance along unit rays dirs (N, 3) from the device to the nearest
    facet other than skip_facet; inf on a miss.
    """
    origin = scene.device.position
    t_best = np.full(len(dirs), np.inf)
    for j, facet in enumerate(scene.facets):
        if j != skip_facet:
            np.minimum(t_best, _ray_quad(origin, dirs, facet), out=t_best)
    return t_best


# Sensor rows per band of the truth cast; working memory is O(_ROWS * cols).
_ROWS = 32


def _pinhole_planes(scene: Scene):
    """
    Each facet's truth-ray tests as five device-frame planes, (F, 5, 3),
    and its |off| (F,), for facets n.p = off with p taken from the device.
    Planes 0-3 are sigma_i = sign(off)*(s_i + 1e-12*n), the side planes of
    the facet's view pyramid, and plane 4 is sign(off)*n.

    The ray through the sensor point d = (x_c, F_L, z_r) of the device frame
    meets the plane at p = off/(n.d) * d, at depth off*F_L/(n.d). On that
    plane the linear form s_i.p = off*(e_i.p) - (v_i.e_i)*(n.p), vertices
    taken from the device, equals off*(p - v_i).e_i. So _ray_quad's inside
    test (p - v_i).e_i >= -1e-12 reads sigma_i.d >= 0, and its t > 0 reads
    sign(off)*(n.d) > 0. A facet whose plane contains the device (off 0)
    has all-zero planes and is seen edge-on.
    """
    origin = scene.device.position
    v = np.array([f.vertices for f in scene.facets]) - origin
    e = np.array([f.edge_normals for f in scene.facets])
    n = np.array([f.normal for f in scene.facets])
    off = np.array([np.dot(f.vertices[0] - origin, f.normal) for f in scene.facets])  # as _ray_quad
    sign = np.sign(off)[:, None]
    planes = np.empty((len(n), 5, 3))
    np.multiply(np.abs(off)[:, None, None], e, out=planes[:, :4])
    planes[:, :4] -= (sign * (np.einsum("fij,fij->fi", v, e) - 1e-12))[..., None] * n[:, None]
    np.multiply(sign, n, out=planes[:, 4])
    return scene.device.to_device(planes.reshape(-1, 3)).reshape(planes.shape), np.abs(off)


def _pinhole_spans(planes: np.ndarray, x: np.ndarray, z: np.ndarray, f_l: float):
    """
    The truth rays that pass a facet's five planes (_pinhole_planes), as
    (first row, lo, hi, den_x, den_z): row first + k passes on columns
    lo[k] <= c < hi[k], and den_x[c] + den_z[k] is sign(off)*(n.d) there.
    None when no ray passes.

    Each test is a column term plus a row term, fl(a*x_c) + fl(b*F_L +
    b'*z_r), and a sum of two doubles has the sign of its exact value, so
    on each row a test holds on one run of columns, which a binary search
    over the column terms finds. Five broadcast sums and compares over each
    pixel of a facet's image box give the same runs bit for bit, but only
    inside such boxes, and took 28 ms against 21 ms for pillar_room at
    720 x 1280 (one BLAS thread, 2-core x86_64).
    """
    col_terms = planes[:, :1] * x
    row_terms = planes[:, 1:2] * f_l + planes[:, 2:3] * z
    lo = np.zeros(len(z), dtype=np.intp)
    hi = np.full(len(z), len(x))
    for k, (a, u, b) in enumerate(zip(planes[:, 0], col_terms, row_terms)):
        strict = k == 4  # a side plane holds on its boundary, n.d > 0 does not
        if a > 0:  # u ascends: the run starts at the first u >= -b
            np.maximum(lo, np.searchsorted(u, -b, "right" if strict else "left"), out=lo)
        elif a < 0:  # -u ascends: the run ends after the last -u <= b
            np.minimum(hi, np.searchsorted(-u, b, "left" if strict else "right"), out=hi)
        else:
            hi[(b <= 0) if strict else (b < 0)] = 0
    hit = np.flatnonzero(lo < hi)
    if not len(hit):
        return None
    rows = slice(hit[0], hit[-1] + 1)
    return rows.start, lo[rows], hi[rows], col_terms[4].copy(), row_terms[4, rows].copy()


def ground_truth_maps(scene: Scene, view: SceneView, resolution: tuple[int, int]):
    """
    Ray-cast reference maps at the requested resolution.

    One ray is cast through each sensor-cell center of the same virtual
    sensor geometry the codebook uses, at (rows, cols) resolution. The range
    map holds euclidean distance to the nearest facet hit; the depth map
    holds the boresight (device-frame y) component of the hit point. Misses
    are +inf in both. Depth never exceeds range, with equality only on
    boresight.

    Each facet is _ray_quad on the pinhole grid (_pinhole_planes,
    _pinhole_spans): it hits one run of columns per sensor row, at depth
    |off|*F_L / (den_x[c] + den_z[r]), and each pixel keeps the least depth.
    Range is depth * ||(x, F_L, z)|| / F_L. No ray direction is formed and
    nothing is rotated per pixel. Against _ray_quad on the normalised,
    rotated rays, the builtin scenes have the same finite pixels and the
    same nearest facet on each, up to exact ties, and range and depth agree
    within 3 ulp. Elsewhere the drift grows with the condition numbers of
    off = (v_0 - origin).n and of n.d, which are unbounded where a facet's
    plane nears the device or a ray grazes it; each hit point still lies
    within a few u of its facet's plane per metre of its distance. The cast
    runs over bands of _ROWS sensor rows, so its temporaries stay in cache,
    and a pixel's value does not depend on the band it falls in.

    Returns
    -------
    (range_map, depth_map) : float arrays of shape (rows, cols), meters.
    """
    rows, cols = resolution
    # A sensor_grid column depends only on its x and a row only on its z;
    # y is F_L throughout.
    x = sensor_grid(view, cols, 1)[0, :, 0]
    z = sensor_grid(view, 1, rows)[:, 0, 2]
    f_l = view.focal_length_m
    xy_sq = x * x + f_l * f_l
    spans = []
    for planes, abs_off in zip(*_pinhole_planes(scene)):
        s = _pinhole_spans(planes, x, z, f_l)
        if s is not None:
            spans.append((*s, abs_off))
    range_map = np.empty((rows, cols))
    depth_map = np.full((rows, cols), MISS)
    for r0 in range(0, rows, _ROWS):
        r1 = min(r0 + _ROWS, rows)
        for first, lo, hi, den_x, den_z, abs_off in spans:
            band = slice(max(first, r0) - first, min(first + len(lo), r1) - first)
            if band.start >= band.stop:
                continue
            lo_b, hi_b = lo[band, None], hi[band, None]
            c0, c1 = lo_b.min(), hi_b.max()
            if c0 >= c1:
                continue
            c = np.arange(c0, c1)
            inside = c >= lo_b
            inside &= c < hi_b
            den = np.add(den_x[c0:c1], den_z[band, None])  # sign(off)*(n.d), > 0 inside
            if abs_off <= 1e-12:
                # _ray_quad also asks |n.u| > 1e-15 and t > 1e-12 of the unit
                # ray u. As t >= |off|, and t >= |off|*1e15 where |n.u| <= 1e-15,
                # they cut no hit off a facet whose plane lies further from the
                # device and which ends within 1 km of it.
                z_b = z[first + band.start : first + band.stop, None]
                d_norm = np.sqrt(xy_sq[c0:c1] + z_b * z_b)  # ||(x, F_L, z)||
                inside &= den > 1e-15 * d_norm
                inside &= abs_off * d_norm > 1e-12 * den  # t = |off|*||d|| / den
            depth = np.divide(abs_off * f_l, den, out=den)
            best = depth_map[first + band.start : first + band.stop, c0:c1]
            np.minimum(best, depth, out=best, where=inside)
        z_band = z[r0:r1, None]
        np.multiply(depth_map[r0:r1], np.sqrt(xy_sq + z_band * z_band), out=range_map[r0:r1])
        range_map[r0:r1] /= f_l
    return range_map, depth_map


@dataclass
class PathSet:
    """
    Struct-of-arrays monostatic path collection.

    amplitude already folds sqrt(G), the carrier phase e^(-j*2*pi*f_c*tau),
    and the per-path scattering phase, so downstream only multiplies by the
    beam couplings and the pulse. Angles are device-frame steering angles.
    """

    delay_s: np.ndarray          # round-trip delays tau = 2*rho/c
    amplitude: np.ndarray        # complex path amplitudes
    theta_z: np.ndarray          # angle from the device z axis
    theta_x: np.ndarray          # angle from the device x axis
    range_m: np.ndarray          # one-way range rho
    specular: np.ndarray         # bool, True for image-source paths

    def __post_init__(self):
        n = len(self.delay_s)
        for name in ("amplitude", "theta_z", "theta_x", "range_m", "specular"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"PathSet field {name} length mismatch")

    def __len__(self) -> int:
        return len(self.delay_s)

    @property
    def max_delay_s(self) -> float:
        return float(self.delay_s.max()) if len(self) else 0.0


def _subdivide(facet: PlanarFacet, cell_size_m: float):
    """
    Split a quad into roughly square cells by bilinear interpolation of the
    corners. Returns cell centers (K, 3) and areas (K,) that sum to the
    facet area, K = n_u * n_w cells in u-major order.

    Each cell (i, j) sits at parameters (u_i, w_j). The centers broadcast
    over (n_u, n_w); the u tangent varies with w only and the w tangent with
    u only, so each is formed once per cell row or column (n_w + n_u
    tangents, not 2K) before their cross product per cell.
    """
    v = facet.vertices
    n_u = max(1, int(np.ceil(np.linalg.norm(v[1] - v[0]) / cell_size_m)))
    n_w = max(1, int(np.ceil(np.linalg.norm(v[3] - v[0]) / cell_size_m)))
    u = ((np.arange(n_u) + 0.5) / n_u)[:, None]           # (n_u, 1)
    w = ((np.arange(n_w) + 0.5) / n_w)[:, None]           # (n_w, 1)
    uu, u_c, w_c = u[:, None], 1 - u[:, None], 1 - w      # (n_u, 1, 1), (n_u, 1, 1), (n_w, 1)
    # Bilinear-patch area elements via the cross product of the local tangents.
    du = w_c * (v[1] - v[0]) + w * (v[2] - v[3])          # (n_w, 3)
    dw = (1 - u) * (v[3] - v[0]) + u * (v[2] - v[1])      # (n_u, 3)
    areas = np.linalg.norm(np.cross(du, dw[:, None]), axis=-1).reshape(-1) / (n_u * n_w)
    # The four corner terms, added left to right in one output and one term buffer.
    centers = np.multiply(u_c * w_c, v[0])
    term = np.empty_like(centers)
    for a, b, corner in ((uu, w_c, v[1]), (uu, w, v[2]), (u_c, w, v[3])):
        centers += np.multiply(a * b, corner, out=term)
    return centers.reshape(-1, 3), areas


def _visible_rows(scene: Scene, fi: int, points: np.ndarray, sigma, xi, specular):
    """
    A group's rows of positive sigma_RCS that no facet but fi blocks, as
    (unit rays, ranges, sigma, xi, specular); the points become the rays.
    """
    points -= scene.device.position
    dist = np.linalg.norm(points, axis=1)
    points /= dist[:, None]
    keep = (sigma > 0) & ~(_first_hit(scene, points, fi) < dist - 1e-9)
    return points[keep], dist[keep], sigma[keep], xi[keep], specular[keep]


def trace_backscatter_paths(
    scene: Scene,
    wavelength_m: float,
    cell_size_m: float = 0.05,
    seed: int | np.random.SeedSequence = 0,
) -> PathSet:
    """
    Extract the monostatic backscatter paths of a scene.

    Every path is a point scatterer with positive sigma_RCS and a clear line
    of sight to the device, with delay tau = 2*rho/c and amplitude
    sqrt(G) * e^(-j*2*pi*f_c*tau) * e^(j*xi), G = channel.path_gain, the
    free-space radar equation (power falls as rho^-4 at fixed sigma_RCS).

    Diffuse mechanism: every facet is subdivided into ~cell_size_m cells;
    a cell has sigma_RCS = BACKSCATTER_GAIN * scatter_ratio * cell_area and
    xi drawn uniformly from a stream seeded by `seed`. Zero-RCS cells
    (glass) are dropped.

    Specular mechanism: a facet that contains the orthogonal foot of the
    device returns a mirror image of the transmitter. The foot is a
    scatterer at range rho (the device's distance to the plane) with the
    plane RCS pi*rho^2*(1 - scatter_ratio^2) and xi = 0: the image-source
    gain lambda^2*(1 - scatter_ratio^2) / ((4*pi)^2 * (2*rho)^2). Specular
    paths follow all diffuse ones; PathSet.specular marks them.

    One pass over the groups (each facet's cells in facet order, then each
    foot) turns a group's points into unit rays in place, casts them against
    the other facets and keeps only its visible rows of positive sigma_RCS,
    so no facet's cells outlive its turn; the kept rows take one rotation to
    the device frame. Only xi reads the seed, one draw per facet over all its
    cells before pruning: delays, angles, ranges, specular flags and
    |amplitude| (to ~1e-16 relative) are the same at every seed.
    """
    if cell_size_m <= 0:
        raise ValueError("cell_size_m must be positive")
    rng = np.random.default_rng(seed)
    origin = scene.device.position
    groups = []  # each group's kept rows (_visible_rows), diffuse cells by facet first
    for fi, facet in enumerate(scene.facets):
        centers, sigma = _subdivide(facet, cell_size_m)
        sigma *= BACKSCATTER_GAIN * facet.material.scatter_ratio  # the cell areas, in place
        # Draw the phases before any pruning so the set of random numbers a
        # facet consumes depends only on its own geometry.
        xi = rng.uniform(0.0, 2.0 * np.pi, size=len(sigma))
        groups.append(_visible_rows(scene, fi, centers, sigma, xi, np.zeros(len(sigma), dtype=bool)))
        del centers, sigma, xi  # before the next facet is cut
    for fi, facet in enumerate(scene.facets):
        n = facet.normal
        dist = np.dot(origin - facet.vertices[0], n)  # signed distance to the plane
        # The ray from the device along -sign(dist)*n meets the plane at the foot.
        if abs(dist) >= 1e-9 and np.isfinite(_ray_quad(origin, -np.sign(dist) * n[None, :], facet)[0]):
            sigma = np.pi * dist**2 * (1.0 - facet.material.scatter_ratio**2)  # power not diffused
            foot = (origin - dist * n)[None, :]
            groups.append(_visible_rows(scene, fi, foot, np.array([sigma]), np.zeros(1), np.ones(1, dtype=bool)))
    rays, rho, sigma, xi, specular = (np.concatenate(column) for column in zip(*groups))
    del groups
    if not len(sigma):
        raise ValueError("scene produced no backscatter paths")
    rays = scene.device.to_device(rays)
    theta_z = np.arccos(np.clip(rays[:, 2], -1.0, 1.0))
    theta_x = np.arccos(np.clip(rays[:, 0], -1.0, 1.0))
    del rays
    tau = 2.0 * rho / SPEED_OF_LIGHT
    f_c = SPEED_OF_LIGHT / wavelength_m
    amp = np.sqrt(path_gain(sigma, rho, wavelength_m)) * np.exp(1j * (xi - 2.0 * np.pi * f_c * tau))
    return PathSet(tau, amp, theta_z, theta_x, rho, specular)


# ---------------------------------------------------------------------------
# JSON scene configs
# ---------------------------------------------------------------------------

def _catalog_material(name: str) -> Material:
    try:
        return MATERIALS[name]
    except KeyError:
        raise ValueError(f"unknown material {name!r}; catalog: {sorted(MATERIALS)}") from None


def _check_keys(data: dict, allowed: set, what: str) -> None:
    extra = set(data) - allowed
    if extra:
        raise ValueError(f"unknown {what} keys {sorted(extra)}")


def _material_from_spec(spec) -> Material:
    if isinstance(spec, str):
        return _catalog_material(spec)
    if isinstance(spec, dict):
        _check_keys(spec, {"name", "scatter_ratio"}, "material")
        return Material(**spec)
    raise ValueError("material must be a catalog name or an inline object")


def scene_from_dict(data: dict) -> Scene:
    """Build a Scene from a JSON-shaped dict; unknown keys are rejected."""
    _check_keys(data, {"facets", "device"}, "scene")
    facets = []
    for fd in data["facets"]:
        _check_keys(fd, {"vertices", "material"}, "facet")
        facets.append(
            PlanarFacet(
                vertices=np.asarray(fd["vertices"], dtype=float),
                material=_material_from_spec(fd["material"]),
            )
        )
    dev = data.get("device", {})
    _check_keys(dev, {"position", "boresight", "up"}, "device")
    pose = DevicePose(
        position=np.asarray(dev.get("position", [0.0, 0.0, 0.0]), dtype=float),
        boresight=np.asarray(dev.get("boresight", [0.0, 1.0, 0.0]), dtype=float),
        up=np.asarray(dev.get("up", [0.0, 0.0, 1.0]), dtype=float),
    )
    return Scene(facets=facets, device=pose)


def scene_to_dict(scene: Scene) -> dict:
    return {
        "facets": [
            {
                "vertices": f.vertices.tolist(),
                "material": {"name": f.material.name, "scatter_ratio": f.material.scatter_ratio},
            }
            for f in scene.facets
        ],
        "device": {
            "position": scene.device.position.tolist(),
            "boresight": scene.device.boresight.tolist(),
            "up": scene.device.up.tolist(),
        },
    }


def load_scene(path) -> Scene:
    with open(path) as fh:
        return scene_from_dict(json.load(fh))


def save_scene(scene: Scene, path) -> None:
    with open(path, "w") as fh:
        json.dump(scene_to_dict(scene), fh, indent=2)


# ---------------------------------------------------------------------------
# Builtin scenes and the scene section of a scenario config
# ---------------------------------------------------------------------------

def _rect(axis: int, at: float, u, w, material: str) -> PlanarFacet:
    """
    Axis-aligned rectangle of catalog material at `at` on axis 0, 1 or 2
    (x, y, z), with corners (u0, w0), (u1, w0), (u1, w1), (u0, w1) on the
    other two axes in x, y, z order. That order sets the normal and the
    order of the _subdivide cells, and so the phase each cell draws.
    """
    corners = [(u[0], w[0]), (u[1], w[0]), (u[1], w[1]), (u[0], w[1])]
    return PlanarFacet([[*c[:axis], at, *c[axis:]] for c in corners], _catalog_material(material))


def _fov_half_extents(view: SceneView, distance_m: float, margin: float) -> tuple[float, float]:
    """Half width / half height of the field of view at a given distance, times margin."""
    if not margin > 0:
        raise ValueError("margin must be positive")
    tan_h = np.tan(np.radians(view.fov_deg) / 2.0)
    tan_v = tan_h / view.aspect_ratio
    return distance_m * tan_h * margin, distance_m * tan_v * margin


def _scene_one_wall(
    view: SceneView,
    distance_m: float = 7.0,
    material: str = "concrete",
    margin: float = 1.15,
) -> Scene:
    """Single flat wall square to the boresight, oversized past the FoV edge."""
    if not distance_m > 0:
        raise ValueError("distance_m must be positive")
    hw, hh = _fov_half_extents(view, distance_m, margin)
    wall = _rect(1, distance_m, (-hw, hw), (-hh, hh), material)
    return Scene(facets=[wall], device=DevicePose(position=np.zeros(3)))


def _scene_two_walls(
    view: SceneView,
    front_distance_m: float = 1.0,
    back_distance_m: float = 2.0,
    front_material: str = "concrete",
    back_material: str = "concrete",
    margin: float = 1.15,
) -> Scene:
    """
    Half-width wall in front of a full wall: the front wall covers the left
    half of the view, so every map has a vertical depth discontinuity at
    boresight and the back wall is partly shadowed.
    """
    if not 0 < front_distance_m < back_distance_m:
        raise ValueError("need 0 < front_distance_m < back_distance_m")
    f_hw, f_hh = _fov_half_extents(view, front_distance_m, margin)
    b_hw, b_hh = _fov_half_extents(view, back_distance_m, margin)
    front = _rect(1, front_distance_m, (-f_hw, 0.0), (-f_hh, f_hh), front_material)
    back = _rect(1, back_distance_m, (-b_hw, b_hw), (-b_hh, b_hh), back_material)
    return Scene(facets=[front, back], device=DevicePose(position=np.zeros(3)))


def _scene_pillar_room(
    view: SceneView,
    size_m: float = 5.0,
    height_m: float = 3.0,
    pillar_distance_m: float = 2.0,
    pillar_half_width_m: float = 0.2,
    wall_material: str = "concrete",
    pillar_material: str = "wood",
) -> Scene:
    """
    Closed room with two pillars: concrete back and side walls, floorboard
    floor, ceiling board above, and two wood pillars partway in. Exercises
    occlusion, multiple materials and grazing-incidence surfaces at once.
    The pillars stand in front of the back wall, each within its half of
    the room. Every facet is one _rect: 5 room faces, then each pillar's
    front, back, left and right side.
    """
    if not (size_m > 0 and height_m > 0):
        raise ValueError("size_m and height_m must be positive")
    if not 0 < pillar_half_width_m < size_m / 4:
        raise ValueError("need 0 < pillar_half_width_m < size_m / 4")
    if not (pillar_distance_m > 0 and pillar_distance_m + 2 * pillar_half_width_m < size_m):
        raise ValueError("need 0 < pillar_distance_m and pillar_distance_m + 2 * pillar_half_width_m < size_m")
    s = size_m / 2.0
    h = height_m / 2.0
    facets = [
        _rect(1, size_m, (-s, s), (-h, h), wall_material),  # back wall
        _rect(0, -s, (0.0, size_m), (-h, h), wall_material),  # left wall
        _rect(0, s, (0.0, size_m), (-h, h), wall_material),  # right wall
        _rect(2, -h, (-s, s), (0.0, size_m), "floorboard"),  # floor
        _rect(2, h, (-s, s), (0.0, size_m), "ceilingboard"),  # ceiling
    ]
    y0, y1 = pillar_distance_m, pillar_distance_m + 2 * pillar_half_width_m
    for x_c in (-size_m / 4.0, size_m / 4.0):
        x0, x1 = x_c - pillar_half_width_m, x_c + pillar_half_width_m
        facets += [_rect(1, y, (x0, x1), (-h, h), pillar_material) for y in (y0, y1)]  # front, back
        facets += [_rect(0, x, (y0, y1), (-h, h), pillar_material) for x in (x0, x1)]  # left, right
    return Scene(facets=facets, device=DevicePose(position=np.zeros(3)))


BUILTIN_SCENES = {
    "one_wall": _scene_one_wall,
    "two_walls": _scene_two_walls,
    "pillar_room": _scene_pillar_room,
}


def build_scene(scene_cfg: dict, view: SceneView) -> Scene:
    """
    Check the scene section of a config ({"builtin": name, ...params},
    {"file": path} or {"inline": scene dict}) and build its Scene. Unknown
    keys, names or materials, missing keys, a file path that is not a string
    and bad parameter values raise ValueError; an unreadable file, OSError.
    """
    modes = [k for k in ("builtin", "file", "inline") if k in scene_cfg]
    if not modes and scene_cfg:
        raise ValueError(
            f"scene config sets {sorted(scene_cfg)} but names no scene: add builtin, file or inline "
            "(e.g. --scenario one_wall)"
        )
    if len(modes) != 1:
        raise ValueError("scene config needs exactly one of: builtin, file, inline")
    mode = modes[0]
    params = {k: v for k, v in scene_cfg.items() if k != mode}
    if mode == "builtin":
        name = scene_cfg["builtin"]
        if name not in BUILTIN_SCENES:
            raise ValueError(f"unknown builtin scene {name!r}; have {sorted(BUILTIN_SCENES)}")
        builder = BUILTIN_SCENES[name]
        extra = set(params) - (set(inspect.signature(builder).parameters) - {"view"})
        if extra:
            raise ValueError(f"unknown {name} scene keys: {sorted(extra)}")
        try:
            return builder(view, **params)
        except TypeError as exc:
            raise ValueError(f"bad {name} scene parameter: {exc}") from None
    if params:
        raise ValueError(f"{mode} scene config takes no other keys")
    if mode == "file" and not isinstance(scene_cfg["file"], (str, os.PathLike)):
        raise ValueError(f"scene file must be a path string, got {scene_cfg['file']!r}")
    try:
        return scene_from_dict(scene_cfg["inline"]) if mode == "inline" else load_scene(scene_cfg["file"])
    except KeyError as exc:
        raise ValueError(f"bad {mode} scene: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"bad {mode} scene: {exc}") from None
