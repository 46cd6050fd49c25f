"""Manufactured exact solutions for convergence studies.

A manufactured velocity is built from closed-form toroidal/poloidal
profiles at a single tangential mode (plus the Hermitian partner), so it is
exactly divergence-free and satisfies no-slip, but in general violates the
natural tangential-traction condition.  The study therefore solves

    a(u, phi) = <f, phi> + sum_walls (k n x w* - n x G* n) . d_n phi,

with f = Lap^2 u* + grad p*: the extra wall functional absorbs the
traction mismatch of u*, making u* the exact solution of the corrected
weak problem for any admissible parameters.  Trig profiles keep every
z-derivative closed-form.

Profiles are non-polynomial (sin/cos), so the discrete solution converges
spectrally but never represents u* exactly - the point of the study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import gauss_legendre, legendre_table, recombined_bases
from .params import ParameterError
from .field import analyze, velocity
from .stationary import wall_dual, wall_traction


class TrigProfile:
    """Finite combination sum_k amp_k sin(freq_k z + phase_k)."""

    def __init__(self, terms):
        self.terms = [(float(a), float(f), float(p)) for a, f, p in terms]

    def __call__(self, z, deriv=0):
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        for a, f, p in self.terms:
            out = out + a * f**deriv * np.sin(f * z + p + deriv * np.pi / 2)
        return out

    @staticmethod
    def sine(freq, amp=1.0):
        return TrigProfile([(amp, freq, 0.0)])

    @staticmethod
    def cosine(freq, amp=1.0):
        return TrigProfile([(amp, freq, np.pi / 2)])

    @staticmethod
    def sine_squared(freq, amp=1.0):
        # amp * sin^2(freq z) = amp/2 - amp/2 cos(2 freq z)
        return TrigProfile([(amp / 2, 0.0, np.pi / 2),
                            (-amp / 2, 2 * freq, np.pi / 2)])


@dataclass
class ManufacturedCase:
    """One manufactured (u*, p*) pair concentrated on a single mode.

    (k1, k2) must be a representative mode of the field layout (k1 > 0, or
    k1 = 0 < k2); its conjugate partner carries the conjugate data.  Any
    other mode raises ValueError when the case is used (ParameterError
    when the resolution does not store the mode at all).
    """

    k1: int
    k2: int
    tor_amp: complex
    pol_amp: complex
    p_amp: complex
    tor_profile: TrigProfile
    pol_profile: TrigProfile
    p_profile: TrigProfile

    def row(self, ops):
        """Row of the case's mode in the field layout of ops."""
        k1, k2 = self.k1, self.k2
        rows = ops.layout.row
        if (k1, k2) in rows:
            return rows[(k1, k2)]
        if (-k1, -k2) in rows:
            raise ValueError(f"manufactured mode ({k1}, {k2}) is not a "
                             f"representative mode; use ({-k1}, {-k2}) with "
                             f"conjugated amplitudes")
        res = ops.resolution
        raise ParameterError(f"manufactured mode ({k1}, {k2}) is not stored at "
                             f"N1 = {res.N1}, N2 = {res.N2}")

    def mode_potentials(self, z, dmax):
        """psi*, phi* derivative stacks (dmax+1, len(z)) at the mode."""
        t = np.stack([self.tor_amp * self.tor_profile(z, d) for d in range(dmax + 1)])
        p = np.stack([self.pol_amp * self.pol_profile(z, d) for d in range(dmax + 1)])
        return t, p

    def pressure_profile(self, z, deriv=0):
        return self.p_amp * self.p_profile(z, deriv)

    # -- data for the corrected weak problem --------------------------------

    def forcing(self, ops):
        """f = Lap^2 u* + grad p* as a (rows, mean) profile pair: zero but
        for the case's row, and a zero mean."""
        row = self.row(ops)
        z = ops.cache.z
        e1, e2 = ops.cache.wavenumber(self.k1, self.k2)
        m = e1 * e1 + e2 * e2
        t, p = self.mode_potentials(z, 5)
        q0 = self.pressure_profile(z)
        grad_p = np.stack([1j * e1 * q0, 1j * e2 * q0, self.pressure_profile(z, 1)])
        prof = velocity(e1, e2, m, t[4] - 2 * m * t[2] + m * m * t[0],
                        p[5] - 2 * m * p[3] + m * m * p[1],
                        p[4] - 2 * m * p[2] + m * m * p[0]) + grad_p
        rows = np.zeros((3, len(ops.layout.reps), len(z)), complex)
        rows[:, row] = prof
        return rows, np.zeros((3, len(z)))

    def wall_defect_dual(self, ops, params):
        """Wall functional absorbing the traction mismatch of u*: wall data
        -n x r for u*'s traction defect r, (-r2, r1) at z = 0 and (r2, -r1)
        at z = H."""
        row = self.row(ops)
        e1, e2 = ops.cache.wavenumber(self.k1, self.k2)
        t, p = self.mode_potentials(np.array([0.0, ops.geometry.H]), 3)
        r1, r2 = wall_traction(e1, e2, e1 * e1 + e2 * e2, t, p, params.gamma, params.k)
        return wall_dual(ops, row, np.array([-r2[0], r1[0]]), np.array([r2[1], -r1[1]]))

    def rhs(self, ops, params):
        return analyze(*self.forcing(ops), ops.cache) + self.wall_defect_dual(ops, params)

    # -- error measurement ----------------------------------------------------

    def errors(self, u, pressure, ops):
        """L2/H1/H2 errors of a discrete solution against u*, p*.

        ``L2_rel``, ``H1_rel`` and ``H2_rel`` divide each by the matching
        norm of u*, which is bitwise the error of the zero field.  Uses an
        independent refined quadrature and the analytic profiles; pressure
        is compared modulo its spatial mean.
        """
        res = ops.resolution
        geo = ops.geometry
        z2, w2 = gauss_legendre(2 * res.Q + 12, geo.H)
        e1, e2 = ops.cache.wavenumber(self.k1, self.k2)
        m = e1 * e1 + e2 * e2
        row = self.row(ops)
        g = ops.layout.block[row]
        Et, Ep = recombined_bases(res.P, z2, geo.H, 3)
        th = np.stack([(E @ ops.cache.W_tor[g]) @ u.psi[row] for E in Et])
        ph = np.stack([(E @ ops.cache.W_pol[g]) @ u.phi[row] for E in Ep])
        ts, ps = self.mode_potentials(z2, 4)
        area = geo.area

        def norms(dt, dp):
            e0 = velocity(e1, e2, m, dt[0], dp[1], dp[0])
            e1v = velocity(e1, e2, m, dt[1], dp[2], dp[1])
            lap = velocity(e1, e2, m, dt[2] - m * dt[0], dp[3] - m * dp[1],
                           dp[2] - m * dp[0])
            l2 = 2 * area * float(np.sum(w2 * np.abs(e0) ** 2))
            h1 = l2 + 2 * area * float(np.sum(w2 * (m * np.abs(e0) ** 2
                                                    + np.abs(e1v) ** 2)))
            h2 = h1 + 2 * area * float(np.sum(w2 * np.abs(lap) ** 2))
            return np.sqrt([l2, h1, h2])

        err, ref = norms(th - ts[:4], ph - ps[:4]), norms(-ts[:4], -ps[:4])
        out = dict(zip(("L2", "H1", "H2", "L2_rel", "H1_rel", "H2_rel"), [*err, *err / ref]))
        if pressure is not None:
            zeta = 2.0 * z2 / geo.H - 1.0
            tab = legendre_table(zeta, pressure.degree, 0)[0].T
            ph_num = tab @ pressure.coeffs[row]
            ph_ref = self.pressure_profile(z2)
            # compare modulo the gauge: the reference constant-mode offset
            # lives in the zero mode, which this case leaves pressure-free
            perr = 2 * area * float(np.sum(w2 * np.abs(ph_num - ph_ref) ** 2))
            out["pressure_L2"] = np.sqrt(perr)
        return out


def default_case(geometry, k1=1, k2=1, tor_amp=0.7 + 0.2j, pol_amp=0.4 - 0.3j,
                 p_amp=0.9):
    """Standard smooth manufactured pair on mode (k1, k2)."""
    fz = np.pi / geometry.H
    return ManufacturedCase(
        k1=k1, k2=k2, tor_amp=tor_amp, pol_amp=pol_amp, p_amp=p_amp,
        tor_profile=TrigProfile.sine(fz),
        pol_profile=TrigProfile.sine_squared(fz),
        p_profile=TrigProfile.cosine(fz))
