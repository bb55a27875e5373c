"""Problem data and the closed-form convex-analysis objects.

The model is the concrete power family: congestion cost f(x, m) =
theta(x) m^(q-1), Hamiltonian H(x, xi) = c(x)|xi|^r / r, and radial price
potential Phi(z) = kappa_phi |z|^s / s with gradient Psi.  Every growth and
monotonicity requirement on the data then holds by construction, and all
Fenchel conjugates are available in closed form.  f and F read a density at
its positive part m+ = max(m, 0) (see ``ProblemSpec.coupling_f``).

``kappa_phi = 0`` selects the degenerate price-free mode: Phi == 0, Psi == 0
and Phi* is the indicator of {0}, which pins the price path to zero and
reduces the system to a classical congestion game.

Exponent bookkeeping: p = q', r' and s' are conjugate exponents, and the
pair (kappa, eta) is derived from the auxiliary function kappa_bar(rt, pt) =
rt*pt*(1+d)/(d - rt*(pt-1)) (infinite above the critical line pt = 1 + d/rt,
a large sentinel on it).  Admissibility of the exponent triple splits into
the four cells 1A/1B/2A/2B depending on whether s' < r and whether the
diffusion matrix is constant; with constant A only the B cells occur.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import HypothesisViolation, NotPSD
from .grid import Grid, check_psd, diffusion_stencil, integrate_space_values

BORDERLINE_SENTINEL = 1.0e6
RTILDE_RESOLUTION = 1.0e-3
_EPS = 1e-12


def conjugate_exponent(p: float) -> float:
    if p <= 1.0:
        raise ValueError(f"exponent must exceed 1, got {p}")
    return p / (p - 1.0)


# -- pointwise power family (component axis last by default) -----------------


def power_value(xi, coeff, expo, axis=-1):
    """coeff * |xi|^expo / expo, the norm taken over the component axis.

    expo = 2 skips the power: |xi|^2 ** 1.0 is |xi|^2 exactly.
    """
    xi = np.asarray(xi, dtype=float)
    sq = (xi * xi).sum(axis=axis)
    return coeff / expo * (sq if expo == 2.0 else sq ** (0.5 * expo))


def power_gradient(xi, coeff, expo, axis=-1):
    """coeff * |xi|^(expo-2) * xi, with value 0 at xi = 0.

    coeff broadcasts against the kept component axis from the trailing side.
    expo = 2 is the linear map coeff * xi, bit for bit the general formula
    for finite coeff >= 0: |xi|^0 is exactly 1, and at xi = 0 the product
    coeff * (+-0) has the sign of the 0 * (+-0) it replaces.
    """
    xi = np.asarray(xi, dtype=float)
    if expo == 2.0:
        return coeff * xi
    n = np.linalg.norm(xi, axis=axis, keepdims=True)
    n_safe = np.where(n > 0.0, n, 1.0)
    return np.where(n > 0.0, coeff * n_safe ** (expo - 2.0), 0.0) * xi


def power_conjugate_coeff(coeff, expo):
    """Coefficient of the conjugate power: (coeff|.|^e/e)* = coeff^(1-e') |.|^e'/e'."""
    return coeff ** (1.0 - conjugate_exponent(expo))


# -- kappa_bar / eta_bar and the exponent table ------------------------------


def _over_margin(numerator, r_tilde, p_tilde, d):
    """numerator(rt, pt) / (d - rt (pt - 1)) where that margin is positive, the
    sentinel on the critical line and inf above it; vectorized in r_tilde/p_tilde."""
    rt, pt = np.asarray(r_tilde, dtype=float), np.asarray(p_tilde, dtype=float)
    margin = d - rt * (pt - 1.0)
    out = np.where(margin > _EPS, numerator(rt, pt) / np.where(margin > _EPS, margin, 1.0),
                   np.where(margin < -_EPS, np.inf, BORDERLINE_SENTINEL))
    return out if out.ndim else float(out)


def kappa_bar(r_tilde, p_tilde, d):
    """Integrability gain exponent."""
    return _over_margin(lambda rt, pt: rt * pt * (1.0 + d), r_tilde, p_tilde, d)


def eta_bar(r_tilde, p_tilde, d):
    return _over_margin(lambda rt, pt: d * (rt * (pt - 1.0) + 1.0), r_tilde, p_tilde, d)


def case_2b_condition(s_prime: float, p: float, d: int) -> bool:
    """Closed-form admissibility in the constant-A, s' >= r cell."""
    if s_prime >= 1.0 + d:
        return True
    return s_prime * (1.0 + d) / (d - s_prime + 1.0) > p


def search_rtilde_2b(s_prime, p, r, d):
    """Scan (1, r] for the exponent maximizing kappa_bar(rt, min(p, s'/rt)).

    Returns (r_tilde, kappa, eta) or None when no admissible exponent
    reaches kappa >= p.  s_prime may be inf (price-free mode).
    """
    n = max(2, int(round((r - 1.0) / RTILDE_RESOLUTION)))
    grid = np.linspace(1.0 + RTILDE_RESOLUTION, r, n)
    if grid[-1] != r:
        grid = np.append(grid, r)
    p_t = np.minimum(p, np.divide(s_prime, grid)) if np.isfinite(s_prime) else np.full_like(grid, p)
    kappas = kappa_bar(grid, p_t, d)
    i = int(np.argmax(kappas))
    if kappas[i] < p - _EPS:
        return None
    rt = float(grid[i])
    pt = float(p_t[i])
    return rt, float(kappas[i]), float(eta_bar(rt, pt, d))


@dataclass(frozen=True)
class CaseInfo:
    """Derived exponents and the admissibility cell of the instance."""

    p: float
    r_prime: float
    s_prime: float
    sigma: float
    case_label: str
    r_tilde: float
    kappa: float
    eta: float

    def to_dict(self) -> dict:
        return {k: v if isinstance(v, str) or np.isfinite(v) else "inf" for k, v in asdict(self).items()}


# -- problem specification ----------------------------------------------------


def _space_array(grid: Grid, value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(grid.space_shape, float(arr))
    if arr.shape != grid.space_shape:
        raise ValueError(f"{name} must be scalar or shape {grid.space_shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True)
class ProblemSpec:
    """All data of one game instance on a fixed grid.

    theta and c accept scalars or per-node arrays; phi accepts a scalar
    (scaled k x d rectangular identity), a constant k x d matrix, or a full
    per-node (k, d, *space) array; A accepts None (zero), a scalar (A = a I)
    or a d x d matrix.  m0 is normalized to unit mass by the constructor
    whenever its mass is positive.
    """

    grid: Grid
    q: float
    r: float
    s: float
    kappa_phi: float = 1.0
    theta: np.ndarray = 1.0
    c: np.ndarray = 1.0
    phi: np.ndarray = 1.0
    A: np.ndarray = None
    m0: np.ndarray = None
    uT: np.ndarray = 0.0
    k: int = 1

    def __post_init__(self):
        g = self.grid
        object.__setattr__(self, "theta", _space_array(g, self.theta, "theta"))
        object.__setattr__(self, "c", _space_array(g, self.c, "c"))

        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim == 0:
            phi = float(phi) * np.eye(self.k, g.d)
        if phi.shape == (self.k, g.d):
            phi = np.broadcast_to(phi.reshape((self.k, g.d) + (1,) * g.d), (self.k, g.d, *g.space_shape)).copy()
        if phi.shape != (self.k, g.d, *g.space_shape):
            raise ValueError(f"phi must have shape ({self.k}, {g.d}) or per-node, got {phi.shape}")
        object.__setattr__(self, "phi", phi)

        A = self.A
        if A is None:
            A = np.zeros((g.d, g.d))
        A = np.asarray(A, dtype=float)
        if A.ndim == 0:
            A = float(A) * np.eye(g.d)
        if A.shape != (g.d, g.d):
            raise ValueError(f"A must be {g.d}x{g.d}, got {A.shape}")
        object.__setattr__(self, "A", A)

        m0 = _space_array(g, 1.0 if self.m0 is None else self.m0, "m0")
        mass = float(integrate_space_values(g, m0))
        if mass > 0.0:
            m0 = m0 / mass
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "uT", _space_array(g, self.uT, "uT"))
        if self.k < 1:
            raise ValueError("price dimension k must be >= 1")

    # -- derived exponents

    @property
    def p(self) -> float:
        return conjugate_exponent(self.q)

    @property
    def r_prime(self) -> float:
        return conjugate_exponent(self.r)

    @property
    def s_prime(self) -> float:
        return np.inf if self.kappa_phi == 0.0 else conjugate_exponent(self.s)

    @property
    def price_free(self) -> bool:
        return self.kappa_phi == 0.0

    # -- validated once per spec; a failed check is not cached and raises again

    @cached_property
    def stencil(self) -> tuple:
        """A's ``diffusion_stencil`` after the symmetric PSD check (NotPSD otherwise); empty for A = 0."""
        return diffusion_stencil(check_psd(self.A, self.grid.d))

    # -- coefficient powers of the conjugates, computed once per spec

    @cached_property
    def c_conj(self) -> np.ndarray:
        """c^(1-r'), the coefficient of H*."""
        return self.c ** (1.0 - self.r_prime)

    @cached_property
    def theta_conj(self) -> np.ndarray:
        """theta^(1-p), the coefficient of F*."""
        return self.theta ** (1.0 - self.p)

    # -- congestion family f, F, F*

    def coupling_f(self, m):
        """f(x, m+) = theta(x) max(m, 0)^(q-1), the congestion multiplier gamma of any density.

        The package's one statement of the sign convention: f and F read a
        density at its positive part m+, so every caller passes m as it is.
        Off m >= 0 the primal cost is +inf (``verify.eval_B``), and a density
        entering a sweep is refused there (``picard.solve_hjb``).
        """
        return self.theta * np.maximum(m, 0.0) ** (self.q - 1.0)

    def F(self, m):
        """Primitive of f in m at m+ (see ``coupling_f``): theta(x) max(m, 0)^q / q."""
        return self.theta / self.q * np.maximum(m, 0.0) ** self.q

    def F_star(self, a):
        """Conjugate of F: zero for a <= 0, theta^(1-p) a^p / p above."""
        a = np.asarray(a, dtype=float)
        ap = np.maximum(a, 0.0)
        return self.theta_conj * ap**self.p / self.p

    # -- Hamiltonian family H, H*, dH (component axis immediately before space)

    def _component_axis(self, xi):
        return np.ndim(xi) - self.grid.d - 1

    def hamiltonian(self, xi):
        """H(x, xi) = c(x) |xi|^r / r on field-shaped arguments."""
        return power_value(xi, self.c, self.r, self._component_axis(xi))

    def ham_conjugate(self, zeta):
        """H*(x, zeta) = c(x)^(1-r') |zeta|^(r') / r'."""
        return power_value(zeta, self.c_conj, self.r_prime, self._component_axis(zeta))

    def dH(self, xi):
        """Gradient of H in xi: c(x) |xi|^(r-2) xi, zero at the origin."""
        return power_gradient(xi, self.c, self.r, self._component_axis(xi))

    # -- price family Phi, Phi*, Psi (k components on the last axis)

    def Phi(self, z):
        if self.price_free:
            return np.zeros(np.asarray(z, dtype=float).shape[:-1])
        return power_value(z, self.kappa_phi, self.s)

    def Phi_star(self, P):
        P = np.asarray(P, dtype=float)
        if self.price_free:
            n = np.linalg.norm(P, axis=-1)
            return np.where(n == 0.0, 0.0, np.inf)
        return power_value(P, power_conjugate_coeff(self.kappa_phi, self.s), self.s_prime)

    def Psi(self, z):
        if self.price_free:
            return np.zeros_like(np.asarray(z, dtype=float))
        return power_gradient(z, self.kappa_phi, self.s)

    def phi_transpose_price(self, P):
        """Field phi(x)^T P_t for a price path (nt', k) -> (nt', d, *space)."""
        return np.einsum("kd...,tk->td...", self.phi, np.asarray(P, dtype=float))

    def aggregate_kernel(self, w):
        """Torus integral of phi(x) w(x) per slice: (..., d, *space) -> (..., k)."""
        g = self.grid
        phi_flat = self.phi.reshape(self.k, g.d, g.n_space)
        w = np.asarray(w, dtype=float)
        w_flat = w.reshape(w.shape[: w.ndim - g.d - 1] + (g.d, g.n_space))
        return np.einsum("kds,...ds->...k", phi_flat, w_flat) * g.cell_volume


# -- hypothesis checking and exponent classification -------------------------


@dataclass
class AssumptionReport:
    """Pass/fail per hypothesis; failures carry a short reason."""

    entries: dict = field(default_factory=dict)

    def record(self, name: str, ok: bool, detail: str = ""):
        self.entries[name] = (bool(ok), detail)

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.entries.values())

    @property
    def failures(self) -> list:
        return [(k, d) for k, (ok, d) in self.entries.items() if not ok]

    def to_dict(self) -> dict:
        return {k: {"passed": ok, "detail": d} for k, (ok, d) in self.entries.items()}


def _finite(values) -> bool:
    """Whether values() is finite everywhere; an overflow in it is the answer here, not a warning."""
    with np.errstate(over="ignore", divide="ignore"):
        return bool(np.isfinite(values()).all())


def check_assumptions(spec: ProblemSpec) -> AssumptionReport:
    """Verify every structural hypothesis on the data; never raises.

    H1 and H2 also refuse a theta or c whose derived coefficients overflow
    on the grid: the conjugate coefficients theta^(1-p) and c^(1-r') and the
    value sweep's CFL coefficient d c / hx^r.
    """
    rep = AssumptionReport()
    g = spec.grid

    ok = spec.q > 1.0 and float(spec.theta.min()) > 0.0
    detail = "" if ok else f"need q > 1 and theta > 0 (q={spec.q}, theta_min={spec.theta.min()})"
    if ok and not _finite(lambda: spec.theta_conj):
        ok, detail = False, f"theta overflows: theta^(1-p) is not finite (theta_min={spec.theta.min():.3e})"
    rep.record("H1_congestion", ok, detail)

    ok = spec.kappa_phi >= 0.0 and (spec.price_free or spec.s > 1.0)
    rep.record("H1_price_potential", ok, "" if ok else f"need kappa_phi >= 0 and s > 1 (kappa_phi={spec.kappa_phi}, s={spec.s})")

    # phi must be spatially constant when 1/s + 1/(p r) < 1
    ok = True
    detail = ""
    if spec.q > 1.0 and spec.r > 1.0 and not spec.price_free and spec.s > 1.0:
        if 1.0 / spec.s + 1.0 / (spec.p * spec.r) < 1.0:
            dev = float(np.max(np.abs(spec.phi - spec.phi.reshape(spec.k, g.d, -1).mean(axis=-1).reshape(spec.k, g.d, *(1,) * g.d))))
            ok = dev <= _EPS
            detail = "" if ok else f"1/s + 1/(p r) < 1 requires constant phi (max deviation {dev:.2e})"
    rep.record("H1_phi_constant", ok, detail)

    ok = spec.r > 1.0 and float(spec.c.min()) > 0.0
    detail = "" if ok else f"need r > 1 and c > 0 (r={spec.r}, c_min={spec.c.min()})"
    if ok and not (_finite(lambda: spec.c_conj) and _finite(lambda: g.d * spec.c.max() / g.hx**spec.r)):
        ok, detail = False, (f"c overflows on this grid: c^(1-r') or d c / hx^r is not finite "
                             f"(c_min={spec.c.min():.3e}, c_max={spec.c.max():.3e})")
    rep.record("H2_hamiltonian", ok, detail)

    try:
        spec.stencil
        rep.record("H3_diffusion", True)
    except NotPSD as exc:
        rep.record("H3_diffusion", False, str(exc))

    mass = float(integrate_space_values(g, spec.m0))
    ok = float(spec.m0.min()) > 0.0 and abs(mass - 1.0) <= 1e-12
    rep.record("H4_boundary_data", ok, "" if ok else f"need m0 > 0 with unit mass (min={spec.m0.min():.3e}, mass={mass})")

    if spec.q > 1.0 and spec.r > 1.0 and (spec.price_free or spec.s > 1.0):
        _, found, detail = _h5_cell(spec.s_prime, spec.p, spec.r, g.d)
        rep.record("H5_exponents", found is not None, detail)
    else:
        rep.record("H5_exponents", False, "exponents q, r, s must exceed 1 before (H5) applies")
    return rep


def _h5_cell(s_prime: float, p: float, r: float, d: int):
    """(H5) in the constant-A column of the exponent table: (label, (r_tilde, kappa, eta) or None, detail).

    Case 1B (s' < r) takes r_tilde = s' at p_tilde = 1; case 2B scans (1, r]
    with search_rtilde_2b, whose verdict is final (case_2b_condition is its
    closed-form limit, which can admit a triple that no scanned r_tilde reaches).
    """
    if s_prime < r:
        kappa = float(kappa_bar(s_prime, 1.0, d))  # s'(d+1)/d
        if kappa < p - _EPS:
            return "1B", None, f"case 1B requires s'(d+1)/d >= p ({kappa:.6g} < {p:.6g})"
        return "1B", (s_prime, kappa, float(eta_bar(s_prime, 1.0, d))), ""
    found = search_rtilde_2b(s_prime, p, r, d)
    detail = "" if found else f"case 2B: no r_tilde in (1, r] reaches kappa >= p (s'={s_prime:.6g}, p={p:.6g}, d={d})"
    return "2B", found, detail


def classify_exponents(spec: ProblemSpec) -> CaseInfo:
    """Derive (p, r', s', sigma), pick the (H5) cell, and fix (r_tilde, kappa, eta).

    Raises HypothesisViolation naming the failing hypothesis when the data
    is inadmissible.
    """
    report = check_assumptions(spec)
    if not report.passed:
        name, detail = report.failures[0]
        raise HypothesisViolation(f"{name} violated" + (f": {detail}" if detail else ""))

    p, rp, sp = spec.p, spec.r_prime, spec.s_prime
    sigma = rp * spec.q / (rp + spec.q - 1.0)
    label, (r_tilde, kappa, eta), _ = _h5_cell(sp, p, spec.r, spec.grid.d)  # admitted by the report
    return CaseInfo(p=p, r_prime=rp, s_prime=sp, sigma=sigma, case_label=label, r_tilde=r_tilde, kappa=kappa, eta=eta)
