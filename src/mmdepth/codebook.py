"""
Grid-matched sensing codebook design for uniform planar arrays.

The device carries co-located transmit and receive UPAs in the x-z plane with
boresight along +y. Beams are not laid out on a uniform angle grid; instead a
virtual camera sensor is placed one focal length in front of the array and one
beam is steered through the center of each sensor cell. The resulting map of
per-beam range estimates is then pixel-aligned with a camera depth map of the
same resolution, which is the whole point of the construction.

Geometry chain:
    sensor_grid       cell centers (x, F_L, z) of the virtual sensor plane
    grid_angles       per-cell steering angles (theta_z, theta_x) measured
                      from the array axes, plus the azimuth phi used when
                      projecting range onto depth
    axis_response     one array axis' response, the base of every UPA response
    steering_vector   UPA response for one (theta_z, theta_x) pair
    design_codebook   the full beam set, optionally Gaussian-tapered for
                      sidelobe reduction and phase-quantized for 2-bit
                      phase shifters

The transmit and receive codebooks are identical (monostatic sensing with
matched beams), so the design holds one weight matrix whose row m is both
f_m and w_m, formed from the axis factors when first read.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = [
    "UpaConfig",
    "SceneView",
    "Codebook",
    "sensor_grid",
    "grid_angles",
    "axis_response",
    "steering_vector",
    "slr_weights",
    "quantize_phases",
    "beam_grid",
    "design_codebook",
    "radiation_pattern",
    "write_codebook_csv",
]


@dataclass(frozen=True)
class UpaConfig:
    """Uniform planar array of isotropic elements in the x-z plane, boresight +y."""

    n_h: int = 16                      # elements along x
    n_v: int = 16                      # elements along z
    spacing_wavelengths: float = 0.5   # inter-element spacing d_s / lambda

    def __post_init__(self):
        if self.n_h < 1 or self.n_v < 1:
            raise ValueError("UPA dimensions must be positive")
        if self.spacing_wavelengths <= 0:
            raise ValueError("element spacing must be positive")

    @property
    def n(self) -> int:
        """Total element count N = n_h * n_v."""
        return self.n_h * self.n_v


@dataclass(frozen=True)
class SceneView:
    """
    Virtual camera geometry the codebook is matched to. The focal length F_L
    is a constant, not a setting: the sensor scales with it, so no beam
    angle, decision or map depends on its value.
    """

    focal_length_m: ClassVar[float] = 0.01343  # F_L
    fov_deg: float = 100.0             # full horizontal field of view
    aspect_ratio: float = 16.0 / 9.0   # sensor width / height
    os_h: int = 1                      # horizontal beam oversampling factor
    os_v: int = 1                      # vertical beam oversampling factor

    def __post_init__(self):
        if not 0.0 < self.fov_deg < 180.0:
            raise ValueError("fov_deg must lie in (0, 180)")
        if self.aspect_ratio <= 0:
            raise ValueError("aspect_ratio must be positive")
        if self.os_h < 1 or self.os_v < 1:
            raise ValueError("oversampling factors must be >= 1")

    @property
    def sensor_width_m(self) -> float:
        """S_H = 2 * F_L * tan(FoV/2)."""
        return 2.0 * self.focal_length_m * np.tan(np.radians(self.fov_deg) / 2.0)

    @property
    def sensor_height_m(self) -> float:
        """S_V = S_H / aspect_ratio."""
        return self.sensor_width_m / self.aspect_ratio


def sensor_grid(view: SceneView, n_bar_h: int, n_bar_v: int) -> np.ndarray:
    """
    Cell centers of the virtual sensor plane.

    The sensor spans [-S_H/2, S_H/2] x [-S_V/2, S_V/2] at y = F_L and is
    split into n_bar_h * n_bar_v equal cells. Row 0 is the top of the image
    (largest z), column 0 the left edge (most negative x).

    Returns
    -------
    np.ndarray, shape (n_bar_v, n_bar_h, 3)
        Cell center coordinates (x, y, z) in the device frame, meters.
    """
    if n_bar_h < 1 or n_bar_v < 1:
        raise ValueError("grid dimensions must be positive")
    q_h = view.sensor_width_m / n_bar_h
    q_v = view.sensor_height_m / n_bar_v
    # Symmetric form (k - (n-1)/2) * q is exactly sign-symmetric in floating
    # point, which keeps mirror-symmetry tests exact.
    x = (np.arange(n_bar_h) - (n_bar_h - 1) / 2.0) * q_h
    z = ((n_bar_v - 1) / 2.0 - np.arange(n_bar_v)) * q_v
    pts = np.empty((n_bar_v, n_bar_h, 3))
    pts[:, :, 0] = x[None, :]
    pts[:, :, 1] = view.focal_length_m
    pts[:, :, 2] = z[:, None]
    return pts


def grid_angles(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Steering and projection angles for sensor-grid points.

    For a point (x, y, z):
        theta_z = pi/2 - arctan(z / hypot(x, y))   angle from the +z axis
        theta_x = pi/2 - arctan(x / hypot(z, y))   angle from the +x axis
        phi     = atan2(y, x)                      azimuth in the x-y plane

    theta_z and theta_x drive the UPA steering phases; (theta_z, phi) convert
    a range estimate into depth via depth = |rho * sin(theta_z) * sin(phi)|.

    Returns
    -------
    (theta_z, theta_x, phi) : each np.ndarray of shape points.shape[:-1]
    """
    x = points[..., 0]
    y = points[..., 1]
    z = points[..., 2]
    theta_z = np.pi / 2.0 - np.arctan2(z, np.hypot(x, y))
    theta_x = np.pi / 2.0 - np.arctan2(x, np.hypot(z, y))
    phi = np.arctan2(y, x)
    return theta_z, theta_x, phi


def axis_response(cos_angle, n: int, spacing_wavelengths: float) -> np.ndarray:
    """
    Response exp(-j * 2*pi*d_s/lambda * cos_angle * r), r = 0..n-1, of an
    n-element array axis. The element index is a new last axis: a scalar
    cos_angle gives shape (n,), an array of shape S gives S + (n,).

    One complex exponential z per angle; its powers follow by doubling,
    z^(h..2h-1) = z^(0..h-1) * z^h. Entry r is then off by O(r) roundings,
    as the direct exponential is through its rounded phase. As
    conj(z) * conj(w) = conj(z * w) exactly, the response at -cos_angle is
    exactly the conjugate of that at cos_angle.
    """
    k_d = 2.0 * np.pi * spacing_wavelengths
    cos_angle = np.asarray(cos_angle, dtype=float)
    # Flat arrays throughout: numpy multiplies complex scalars by another
    # rounding than arrays, and every entry must be the same function of its
    # angle whatever the input's shape.
    z = np.exp(-1j * k_d * cos_angle.reshape(-1))
    # Powers along a leading axis, so that each product runs over contiguous
    # angles and writes a block that does not overlap its input.
    powers = np.empty((n, z.size), dtype=complex)
    powers[:1] = 1.0
    z_h, h = z, 1
    while h < n:
        step = min(h, n - h)
        np.multiply(powers[:step], z_h, out=powers[h : h + step])
        z_h, h = z_h * z_h, 2 * h
    return np.ascontiguousarray(powers.T).reshape(cos_angle.shape + (n,))


def steering_vector(theta_z: float, theta_x: float, upa: UpaConfig) -> np.ndarray:
    """
    UPA array response a(theta_z, theta_x), the Kronecker product of the
    vertical and horizontal constituent vectors:

        b_v = axis_response(cos(theta_z), n_v)
        b_h = axis_response(cos(theta_x), n_h)
        a = kron(b_v, b_h)

    Entries have unit modulus; ||a||^2 = n.
    """
    b_v = axis_response(np.cos(theta_z), upa.n_v, upa.spacing_wavelengths)
    b_h = axis_response(np.cos(theta_x), upa.n_h, upa.spacing_wavelengths)
    return np.kron(b_v, b_h)


def slr_weights(n: int, delta: float) -> np.ndarray:
    """
    Gaussian sidelobe-reduction taper for one array axis.

    [c]_r = exp(-(r - mu)^2 / (2 sigma^2)), mu = n/2, sigma = n/delta,
    with the element index r running 1..n. Larger delta widens the mainlobe
    and pushes sidelobes further down; delta = 0 disables the taper.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not delta >= 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta == 0:
        return np.ones(n)
    r = np.arange(1, n + 1, dtype=float)
    sigma = n / delta
    return np.exp(-((r - n / 2.0) ** 2) / (2.0 * sigma**2))


def quantize_phases(weights: np.ndarray, bits: int) -> np.ndarray:
    """
    Snap weight phases to the 2^bits shifter set {2*pi*k / 2^bits}.

    The modulus of each entry is preserved; only the phase is quantized.
    Exact half-step ties resolve toward the smaller quantized phase, so with
    bits = 2 a phase of pi/4 snaps to 0 rather than pi/2.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    step = 2.0 * np.pi / (2**bits)
    phase = np.mod(np.angle(weights), 2.0 * np.pi)
    k = np.ceil(phase / step - 0.5)      # round half down
    k = np.mod(k, 2**bits)
    return np.abs(weights) * np.exp(1j * step * k)


def _kron_rows(b_v: np.ndarray, b_h: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of (M, n_v) and (M, n_h); index layout matches steering_vector."""
    return (b_v[:, :, None] * b_h[:, None, :]).reshape(len(b_v), -1)


@dataclass(eq=False)
class Codebook:
    """
    Grid-matched beam pair codebook.

    weights[m] is both the transmit beam f_m and the combining vector w_m
    (identical arrays, monostatic matched beams). Beams are ordered row-major
    over the sensor grid: m = v * n_bar_h + h with v = 0 the top image row.

    axis_factors holds the per-axis vectors (b_v, b_h), shapes (M, n_v) and
    (M, n_h); weights, their row-wise Kronecker product, is formed on first
    read and kept. Phase quantization breaks that structure: axis_factors is
    then None, and dense holds the weights.

    Codebooks compare by identity: a field-wise == over arrays has no single
    truth value.
    """

    upa: UpaConfig
    view: SceneView
    n_bar_h: int
    n_bar_v: int
    grid_points: np.ndarray            # (n_bar_v, n_bar_h, 3) sensor cell centers
    theta_z: np.ndarray                # (n_bar_v, n_bar_h) steering angles
    theta_x: np.ndarray
    phi: np.ndarray                    # (n_bar_v, n_bar_h) projection azimuths
    axis_factors: tuple[np.ndarray, np.ndarray] | None = None
    dense: np.ndarray | None = field(default=None, repr=False)  # (M, n) weights without factors
    combine_norm_sq: np.ndarray = field(init=False)  # ||w_m||^2 per beam

    def __post_init__(self):
        self.combine_norm_sq = np.sum(np.abs(self.weights) ** 2, axis=1)
        if self.dense is None:
            del self.weights  # no stage of a run reads it; formed again, to the same bits

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """(M, n) complex beam weights."""
        return _kron_rows(*self.axis_factors) if self.dense is None else self.dense

    @property
    def m(self) -> int:
        """Number of beams M = n_bar_v * n_bar_h."""
        return self.n_bar_h * self.n_bar_v


def beam_grid(upa: UpaConfig, view: SceneView) -> tuple[int, int]:
    """The beam grid (rows n_v * os_v, cols n_h * os_h): one beam per sensor cell."""
    return upa.n_v * view.os_v, upa.n_h * view.os_h


def design_codebook(
    upa: UpaConfig,
    view: SceneView,
    slr_delta_h: float = 0.0,
    slr_delta_v: float = 0.0,
    phase_bits: int | None = None,
) -> Codebook:
    """
    Design the grid-matched sensing codebook.

    One beam per sensor cell: n_bar_h = n_h * os_h columns and
    n_bar_v = n_v * os_v rows, M = n_bar_h * n_bar_v beams in total.
    Optional Gaussian tapers (slr_delta_* > 0; 0 disables, a negative delta
    raises, as in slr_weights) are applied per axis before the optional
    phase quantization, which always runs last and alone stores the dense
    weights; otherwise the codebook keeps only its axis factors (Codebook).
    """
    n_bar_v, n_bar_h = beam_grid(upa, view)
    pts = sensor_grid(view, n_bar_h, n_bar_v)
    theta_z, theta_x, phi = grid_angles(pts)

    # Constituent vectors for every beam at once: (M, n_v) and (M, n_h).
    b_v = axis_response(np.cos(theta_z).reshape(-1), upa.n_v, upa.spacing_wavelengths)
    b_h = axis_response(np.cos(theta_x).reshape(-1), upa.n_h, upa.spacing_wavelengths)
    if slr_delta_v != 0:
        b_v = b_v * slr_weights(upa.n_v, slr_delta_v)[None, :]
    if slr_delta_h != 0:
        b_h = b_h * slr_weights(upa.n_h, slr_delta_h)[None, :]
    factors, dense = (b_v, b_h), None
    if phase_bits is not None:
        factors, dense = None, quantize_phases(_kron_rows(b_v, b_h), phase_bits)

    return Codebook(
        upa=upa,
        view=view,
        n_bar_h=n_bar_h,
        n_bar_v=n_bar_v,
        grid_points=pts,
        theta_z=theta_z,
        theta_x=theta_x,
        phi=phi,
        axis_factors=factors,
        dense=dense,
    )


def radiation_pattern(
    beam: np.ndarray,
    upa: UpaConfig,
    theta_z: np.ndarray,
    theta_x: np.ndarray,
) -> np.ndarray:
    """
    Normalized transmit power pattern |a(theta_z, theta_x)^H f|^2 of one beam
    over a grid of angles, peak-normalized to 1. theta_z and theta_x must be
    broadcastable against each other.
    """
    theta_z, theta_x = np.broadcast_arrays(theta_z, theta_x)
    b_v = axis_response(np.cos(theta_z), upa.n_v, upa.spacing_wavelengths)
    b_h = axis_response(np.cos(theta_x), upa.n_h, upa.spacing_wavelengths)
    f = beam.reshape(upa.n_v, upa.n_h)
    # a^H f = b_v^H F b_h* term by term: contract vertical then horizontal.
    inner = np.einsum("...v,vh,...h->...", b_v.conj(), f, b_h.conj())
    power = np.abs(inner) ** 2
    peak = power.max()
    if peak == 0:
        raise ValueError("beam has zero pattern")
    return power / peak


def write_codebook_csv(cb: Codebook, path) -> None:
    """
    Dump a codebook to CSV, one row per beam:
    m, v, h, theta_z, theta_x, phi, x, y, z, then the n weight entries as
    interleaved re/im columns (w0_re, w0_im, ...).
    """
    n = cb.upa.n
    header = ["m", "v", "h", "theta_z_rad", "theta_x_rad", "phi_rad", "x_m", "y_m", "z_m"]
    for i in range(n):
        header += [f"w{i}_re", f"w{i}_im"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for m, w in enumerate(cb.weights):
            v, h = divmod(m, cb.n_bar_h)
            pt = cb.grid_points[v, h]
            row = [
                m,
                v,
                h,
                repr(float(cb.theta_z[v, h])),
                repr(float(cb.theta_x[v, h])),
                repr(float(cb.phi[v, h])),
                repr(float(pt[0])),
                repr(float(pt[1])),
                repr(float(pt[2])),
            ]
            for i in range(n):
                row += [repr(float(w[i].real)), repr(float(w[i].imag))]
            writer.writerow(row)
