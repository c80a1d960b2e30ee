"""Output checks written from the definitions, not from the code being timed.

Every function here reads files a ``shapeflow`` command wrote and returns a
list of problems (empty when the output is right).  The formulas are
re-derived in plain numpy from the module docstrings: the generating
coefficients of f'(z) psibar(z), the Koebe implicit solution of the
single-atom flow, the bilinear table D_s behind omega_1, and the graph
relation of a basis element.  None of them calls the function whose output
it checks, with one exception: the tau check evaluates the library's tau at
Sato-shifted times and compares the quotient with the Baker-Akhiezer function,
which is solved from the graph relation by a different route.
"""

from __future__ import annotations

import json
import math

import numpy as np
from shapeflow.kp import GeneralizedTimes, baker_akhiezer
from shapeflow.kp import tau as tau_at

# Tolerances.  Conservation and Koebe are the gates of the flow tests; the
# others sit well above the roundoff of the quantities they compare.
GBAR_DRIFT_TOL = 1e-7
# The step that ends on a driver switch evaluates its last RK4 stage with the
# new piece, so Gbar moves by O(h^2) there: 3e-6 to 5e-5 measured at h=1e-3.
SWITCH_JUMP_TOL = 1e-3
KOEBE_TOL = 1e-8
ENERGY_DRIFT_TOL = 1e-8
GBAR_MATCH_TOL = 1e-12
OMEGA_MATCH_TOL = 1e-10
LAMBDA_FD_TOL = 1e-6
RESIDUAL_TOL = 1e-9
TAU_MATCH_TOL = 1e-12
SATO_TOL = 1e-6
GRAPH_TOL = 1e-12

FD_STEP = 1e-4
SATO_Z = 3.0 * complex(math.cos(math.pi / 7), math.sin(math.pi / 7))


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def load_json(path):
    """Parse a JSON file, refusing NaN and Infinity."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def read_csv(path):
    """(header, rows) of a numeric CSV with one header line."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] != len(header):
        raise ValueError(f"{path}: {rows.shape[1]} columns under {len(header)} names")
    return header, rows


def _complex_columns(header, rows, names):
    index = {name: i for i, name in enumerate(header)}
    re = rows[:, [index[f"re_{n}"] for n in names]]
    im = rows[:, [index[f"im_{n}"] for n in names]]
    return re + 1j * im


# ---------------------------------------------------------------------------
# flow


def flow_problems(out_dir, sizes, starts, koebe):
    """Checks of one ``evolve`` run: shape, finiteness, conservation, Koebe.

    ``starts`` are the driver's piece start times.  Gbar and H + G_0 are held
    constant within each piece (H depends on the piece); across a switch
    Gbar may move by at most SWITCH_JUMP_TOL.
    """
    order, m_neg, n_psi = sizes["order"], sizes["m_neg"], sizes["n_psi"]
    horizon, step = sizes["horizon"], sizes["step"]
    problems = []
    header, rows = read_csv(f"{out_dir}/trajectory.csv")
    report = load_json(f"{out_dir}/conservation.json")
    steps = int(round(horizon / step))
    if rows.shape[0] != steps + 1:
        problems.append(f"trajectory has {rows.shape[0]} rows, want {steps + 1}")
    if report.get("steps") != steps + 1:
        problems.append(f"conservation.json reports {report.get('steps')} steps")
    if not np.isfinite(rows).all():
        return problems + ["trajectory holds non-finite values"]
    t = rows[:, header.index("t")]
    if abs(t[-1] - horizon) > 1e-12:
        problems.append(f"last time {t[-1]!r} is not the horizon {horizon!r}")

    c = _complex_columns(header, rows, [f"c_{n}" for n in range(1, order + 1)])
    ks = list(range(-m_neg, n_psi + 1))
    psi = _complex_columns(header, rows, [f"psibar_{m}" for m in ks])
    written = _complex_columns(header, rows, [f"Gbar_{k}" for k in ks])

    # Gbar_k = psibar_k + sum_j (j+1) c_j psibar_{k+j}, the coefficients of f' psibar
    gbar = psi.copy()
    for i, k in enumerate(ks):
        for j in range(1, min(order, n_psi - k) + 1):
            gbar[:, i] += (j + 1) * c[:, j - 1] * psi[:, i + j]
    mismatch = np.abs(written - gbar).max() / (1.0 + np.abs(gbar).max())
    if mismatch > GBAR_MATCH_TOL:
        problems.append(f"written Gbar differs from f'psibar by {mismatch:.3e}")

    # H + G_0 with G_0 = sum_k k c_k psibar_k stays bounded along the flow
    kmax = min(order, n_psi)
    g0 = sum(k * c[:, k - 1] * psi[:, k + m_neg] for k in range(1, kmax + 1))
    h = rows[:, header.index("re_H")] + 1j * rows[:, header.index("im_H")]
    energy = h + g0

    piece = np.searchsorted(np.asarray(starts), t, side="right")
    first = np.flatnonzero(np.diff(piece, prepend=-1))
    for lo, hi in zip(first, list(first[1:]) + [len(t)]):
        g, e = gbar[lo:hi], energy[lo:hi]
        drift = (np.abs(g - g[0]) / (1.0 + np.abs(g[0]))).max()
        if drift > GBAR_DRIFT_TOL:
            problems.append(f"Gbar drift {drift:.3e} from t={t[lo]} exceeds {GBAR_DRIFT_TOL:g}")
        if np.abs(e - e[0]).max() > ENERGY_DRIFT_TOL:
            problems.append(f"H + G_0 drifts by {np.abs(e - e[0]).max():.3e} from t={t[lo]}")
        if lo > 0:
            jump = (np.abs(gbar[lo] - gbar[lo - 1]) / (1.0 + np.abs(gbar[lo - 1]))).max()
            if jump > SWITCH_JUMP_TOL:
                problems.append(f"Gbar jumps by {jump:.3e} at the switch t={t[lo]}")

    if koebe:
        # K(e^-t f(z)) = e^-t K(z) with K(x) = x / (1 + x)^2 on |z| = 0.2
        z = 0.2 * np.exp(2j * np.pi * np.arange(10) / 10)
        powers = z[None, :] ** np.arange(1, order + 1)[:, None]
        f = z[None, :] * (1.0 + c @ powers)
        w = np.exp(-t)[:, None] * f
        err = np.abs(w / (1 + w) ** 2 - np.exp(-t)[:, None] * z / (1 + z) ** 2).max()
        if not err < KOEBE_TOL:
            problems.append(f"Koebe error {err:.3e} exceeds {KOEBE_TOL:g}")
    return problems


# ---------------------------------------------------------------------------
# kp / tau


def schur_values(t, K):
    """S_0..S_K of exp(t1 z + t2 z^2 + t3 z^3) by q S_q = sum_j j t_j S_{q-j}."""
    s = [1.0 + 0j]
    for q in range(1, K + 1):
        s.append(sum(j * t[j - 1] * s[q - j] for j in range(1, min(q, 3) + 1)) / q)
    return s


def d_table(c, t, N, depth=1):
    """D_0..D_depth of the docstring of ``shapeflow.kp`` at truncation N."""
    cbar = np.zeros(N, dtype=complex)
    cbar[: min(N, len(c))] = np.conj(np.asarray(c, dtype=complex)[:N])
    g = [1.0 + 0j] + [(k + 1) * cbar[k - 1] for k in range(1, N + 1)]
    r = [1.0 + 0j]
    for n in range(1, N + 1):
        r.append(-sum(g[k] * r[n - k] for k in range(1, n + 1)))
    a = schur_values(t, N + 1)
    out = []
    for s in range(depth + 1):
        total = 0j
        for m in range(1, N + 1):
            inner = sum(r[j] * a[m + j - s] for j in range(N + 2 - m) if m + j - s >= 0)
            total += m * cbar[m - 1] * inner
        out.append(total)
    return out


def omega1(c, t, N):
    d0, d1 = d_table(c, t, N)
    return d1 / (1.0 - d0)


def one_minus_a(c, t, N):
    return 1.0 - d_table(c, t, N, depth=0)[0]


def kp_problems(out_dir, c, rows_t, N):
    """Checks of one ``kp`` sweep with convergence_pair; returns (problems, tau)."""
    problems = []
    header, rows = read_csv(f"{out_dir}/kp_sweep.csv")
    if rows.shape[0] != len(rows_t):
        return [f"kp sweep has {rows.shape[0]} rows, want {len(rows_t)}"], None
    if not np.isfinite(rows).all():
        return ["kp sweep holds non-finite values"], None
    col = {name: i for i, name in enumerate(header)}
    for row, t in zip(rows, rows_t):
        if any(abs(row[col[k]] - t[i]) > 0 for i, k in enumerate(("t1", "t2", "t3"))):
            problems.append(f"row times {row[:3]} are not {t}")
            continue
        want = omega1(c, t, N)
        got = complex(row[col["re_omega1"]], row[col["im_omega1"]])
        if abs(got - want) > OMEGA_MATCH_TOL * (1 + abs(want)):
            problems.append(f"omega1 at {t} is {got}, definition gives {want}")
        # lambda_1 = -d omega_1 / d t_1, against a centred difference
        up = omega1(c, (t[0] + FD_STEP, t[1], t[2]), N)
        down = omega1(c, (t[0] - FD_STEP, t[1], t[2]), N)
        fd = -(up - down) / (2 * FD_STEP)
        lam = complex(row[col["re_lambda1"]], row[col["im_lambda1"]])
        if abs(lam - fd) > LAMBDA_FD_TOL * (1 + abs(fd)):
            problems.append(f"lambda1 at {t} is {lam}, finite difference gives {fd}")
        for name in ("residual", f"residual_{2 * N}"):
            if not 0 <= row[col[name]] <= RESIDUAL_TOL:
                problems.append(f"{name} {row[col[name]]:.3e} at {t} is not at roundoff")
    tau = rows[:, col["re_tau"]] + 1j * rows[:, col["im_tau"]]
    return problems, tau


def tau_problems(out_dir, rows_t, kp_tau, op, N):
    """Checks of one ``tau`` sweep against the kp sweep and, for n=1, Sato.

    ``op`` is the order-1 graph of the shape (None for n > 1): there the
    wave function from two tau values must equal the Baker-Akhiezer function
    solved from the graph relation.
    """
    problems = []
    header, rows = read_csv(f"{out_dir}/tau.csv")
    if rows.shape[0] != len(rows_t):
        return [f"tau sweep has {rows.shape[0]} rows, want {len(rows_t)}"]
    if not np.isfinite(rows).all():
        return ["tau sweep holds non-finite values"]
    tau = rows[:, header.index("re_tau")] + 1j * rows[:, header.index("im_tau")]
    if kp_tau is not None:
        gap = np.abs(tau - kp_tau).max() / (1 + np.abs(tau).max())
        if gap > TAU_MATCH_TOL:
            problems.append(f"tau and kp sweeps disagree on tau by {gap:.3e}")
    if op is not None:
        for value, t in zip(tau, rows_t):
            times = GeneralizedTimes(tuple(t))
            shifted = tau_at(op, times.sato_shifted(SATO_Z), N)
            sato = np.exp(times.xi(SATO_Z)) * shifted / value
            ba = baker_akhiezer(op, times, z_samples=(SATO_Z,)).values[0]
            if abs(sato - ba) > SATO_TOL * (1 + abs(ba)):
                problems.append(f"Sato quotient {sato} differs from Baker-Akhiezer {ba} at {t}")
    return problems


# ---------------------------------------------------------------------------
# identities


def check_problems(out_dir, suite, stdout, records):
    """Checks of one ``check`` run: every record passed, stdout equals the file."""
    with open(f"{out_dir}/check_{suite}.json") as fh:
        text = fh.read()
    payload = json.loads(text)
    problems = []
    if stdout != text:
        problems.append("check stdout differs from the written JSON")
    results = payload.get("results", [])
    if payload.get("suite") != suite or len(results) != records:
        problems.append(f"suite {suite} reported {len(results)} records, want {records}")
    problems += [f"{r.get('name')} failed: {r.get('detail')}" for r in results if r.get("passed") is not True]
    if payload.get("passed") is not True:
        problems.append(f"suite {suite} did not pass")
    return problems


def graph_problems(out_dir, c, n, N):
    """Checks of one ``graph-dump``: the C11 band and the graph relation."""
    payload = load_json(f"{out_dir}/graph.json")
    problems = []
    if payload.get("n") != n or payload.get("N") != N:
        return [f"graph is n={payload.get('n')} N={payload.get('N')}, want n={n} N={N}"]

    def cx(pairs):
        return np.array([complex(re, im) for re, im in pairs])

    cbar = np.zeros(N, dtype=complex)
    cbar[: min(N, len(c))] = np.conj(np.asarray(c, dtype=complex)[:N])
    band = cx(payload["c11_band"])
    want = np.concatenate([[1.0], (np.arange(1, N + 1) + 1) * cbar])
    if np.abs(band - want).max() > GRAPH_TOL:
        problems.append("C11 band is not 1, 2 conj(c_1), 3 conj(c_2), ...")
    T = np.array([cx(row) for row in payload["T"]])
    basis = payload["basis"]
    if T.shape != (n, N + 1) or len(basis) != N + 1:
        return problems + [f"graph has T {T.shape} and {len(basis)} basis elements"]
    worst = 0.0
    for e in basis:
        coeffs = cx(e["coeffs"])
        if e["lo"] != -n or coeffs.size != n + N + 1:
            return problems + ["basis element has the wrong window"]
        # negative part (powers -1..-n) is T applied to the nonnegative part
        worst = max(worst, np.abs(coeffs[n - 1 :: -1] - T @ coeffs[n:]).max())
    if worst > GRAPH_TOL * (1 + np.abs(T).max()):
        problems.append(f"basis violates the graph relation by {worst:.3e}")
    return problems
