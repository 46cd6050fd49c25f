"""The benchmark's workloads: nsab CLI operations generated from a seed.

Every workload uses the model (alpha, beta, gamma, ell) = (0.2, 0.1, -1, 0.01),
so the wall coefficient k = ell / beta^2 = 1.  A workload is a list of
operations per pass; a run repeats passes until its time is used up, so the
mix of operations is the same in every run.  Seeds for the program
(``u0.seed``, ``probe.seed``, ``forcing.seed``) are derived per key from the
workload seed and written into the configs; ``--seed`` is never passed to
nsab, because it sets every catalog seed to one value, which makes the
probe's perturbation direction u0 itself.

Why these workloads:

* ``evolve-n16p32`` - the pinned evolution config (N16/P32, Euler, dt 0.02,
  amplitude 0.2, cadence 5), run to T 0.2.  Its time goes to large grid
  arrays: synthesis on the padded grid, the convective product, FFTs and
  the IMEX solve.
* ``probe-n8p16`` - ``probe-uniqueness`` at N8/P16 with cnab2, dt 0.02,
  amplitude 0.3, T 0.5: four trajectories of 25 steps, three of them
  distinct.  At this size the per-mode Python loops dominate, not the FFT
  size, and it is the only workload that runs the cnab2 branch.

The trajectories are shorter than the pinned T 1 and T 2, with the same cost
per step, so that a run holds 20 or more operations: on a shared host the
medians of many short operations, each calibrated by kernel samples taken
next to it, spread far less between runs than a few long ones.
* ``stationary-n16`` - ``solve`` (manufactured and random solenoidal forcing)
  and ``eigs`` at N16 over P in {24, 32, 40, 48}, without time stepping.
  It exercises basis and operator set-up, the stationary solve, pressure
  recovery, wall audits, the forcing dual and the spectra.  At the parent
  commit of this benchmark both solves at P=48 exit 3 with a spurious
  kernel-consistency error; they stay in the workload and count as failed.
"""

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 1
MODEL = ("model.alpha = 0.2", "model.beta = 0.1", "model.gamma = -1.0",
         "model.ell = 0.01")
STATIONARY_P = (24, 32, 40, 48)


@dataclass(frozen=True)
class Op:
    """One nsab CLI invocation: subcommand, config text and a short label."""

    label: str
    kind: str
    config: str
    params: tuple = ()  # (key, value) pairs the output checks need

    def param(self, key):
        return dict(self.params)[key]


def derive_seed(workload, seed, key, rep=0):
    """A 31-bit program seed for one config key, distinct per key and repeat."""
    digest = hashlib.sha256(f"{workload}|{seed}|{key}|{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def config_text(lines):
    return "\n".join(MODEL + tuple(lines)) + "\n"


def _trajectory_lines(n, p, scheme, dt, T, amplitude):
    return [f"resolution.N1 = {n}", f"resolution.N2 = {n}",
            f"resolution.P = {p}", f"scheme.name = {scheme}",
            f"time.dt = {dt!r}", f"time.T = {T!r}", "u0.id = random",
            f"u0.amplitude = {amplitude!r}"]


def evolve_pass(seed, rep):
    name = "evolve-n16p32"
    T = 0.2
    lines = _trajectory_lines(16, 32, "euler", 0.02, T, 0.2) + [
        f"u0.seed = {derive_seed(name, seed, 'u0.seed')}",
        "output.cadence = 5"]
    return [Op("evolve N16/P32", "evolve", config_text(lines), (("T", T),))]


def probe_pass(seed, rep):
    name = "probe-n8p16"
    T = 0.5
    lines = _trajectory_lines(8, 16, "cnab2", 0.02, T, 0.3) + [
        f"u0.seed = {derive_seed(name, seed, 'u0.seed')}",
        f"probe.seed = {derive_seed(name, seed, 'probe.seed')}"]
    return [Op("probe N8/P16", "probe-uniqueness", config_text(lines),
               (("T", T),))]


def stationary_pass(seed, rep):
    """Twelve operations; the random forcing seed changes with the repeat."""
    name = "stationary-n16"
    ops = []
    for P in STATIONARY_P:
        res = ["resolution.N1 = 16", "resolution.N2 = 16", f"resolution.P = {P}"]
        fseed = derive_seed(name, seed, "forcing.seed", rep)
        ops.append(Op(f"solve manufactured P={P}", "solve",
                      config_text(res + ["forcing.id = manufactured"]),
                      (("P", P), ("forcing", "manufactured"))))
        ops.append(Op(f"solve random_solenoidal P={P}", "solve",
                      config_text(res + ["forcing.id = random_solenoidal",
                                         f"forcing.seed = {fseed}"]),
                      (("P", P), ("forcing", "random_solenoidal"))))
        ops.append(Op(f"eigs P={P}", "eigs",
                      config_text(res + ["eigs.count = 20"]),
                      (("P", P), ("count", 20))))
    return ops


def _short_trajectory(kind, n, p, scheme):
    """Warm-up: two steps at the workload's own size."""
    lines = _trajectory_lines(n, p, scheme, 0.02, 0.04, 0.2)
    return (Op(f"warm-up {kind}", kind, config_text(lines)),)


def _stationary_warmup():
    res = ["resolution.N1 = 16", "resolution.N2 = 16", "resolution.P = 24"]
    return (Op("warm-up solve", "solve",
               config_text(res + ["forcing.id = manufactured"])),
            Op("warm-up eigs", "eigs", config_text(res)))


@dataclass(frozen=True)
class Workload:
    name: str
    ops_for_pass: object  # (seed, rep) -> list of Op
    warmup: tuple         # untimed operations that load the code paths first


WORKLOADS = {
    w.name: w for w in (
        Workload("evolve-n16p32", evolve_pass,
                 _short_trajectory("evolve", 16, 32, "euler")),
        Workload("probe-n8p16", probe_pass,
                 _short_trajectory("probe-uniqueness", 8, 16, "cnab2")),
        Workload("stationary-n16", stationary_pass, _stationary_warmup()),
    )
}
