"""Executable pass/fail checkers for every pathwise and statistical guarantee.

Each checker reduces a trace (or a sampled point set) to a CheckResult with a
worst-case margin: positive slack means satisfied, and ``status`` is "fail"
exactly when the margin drops below minus the stated tolerance.  Tolerances
are relative to a per-quantity scale so that 10^6-step accumulations don't
drown exact identities in roundoff.

Statistical checkers (oracle soundness, the branching descent check) use a
4-standard-error budget and, where many checkpoints are involved, a >= 95%
checkpoint pass rate; they never gate on a single checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import HyperParams, alpha1
from .instrumentation import TheoryTrace, _branch_step, _mean_sd, aux_iterate
from .problems import (
    ROW_CHUNK,
    Problem,
    ProblemCertificate,
    branch_samples,
    grad,
    grad_batch,
    loss,
    loss_batch,
)


class IncompleteTrace(ValueError):
    """Trace arrays contain non-finite entries; checks need gap-free data."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one checker: worst margin (positive = satisfied) + context."""

    name: str
    status: str  # "pass" | "fail"
    worst_margin: float
    location: tuple  # (seed, t, i); entries None where not applicable
    tolerance: float
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            # strict JSON has no infinity: the note names a non-finite margin,
            # and an infinite tolerance marks an informational result
            "worst_margin": self.worst_margin if math.isfinite(self.worst_margin) else None,
            "location": list(self.location),
            "tolerance": self.tolerance if math.isfinite(self.tolerance) else None,
            "note": self.note,
        }


def _result(name, margin, tol, location, note="") -> CheckResult:
    margin = float(margin)
    finite = math.isfinite(margin)
    if not finite:
        # a NaN fails no comparison, so it is recorded as the worst margin there is
        note = f"non-finite margin {margin}" + (f"; {note}" if note else "")
        margin = -math.inf
    return CheckResult(
        name=name,
        status="pass" if finite and margin >= -tol else "fail",
        worst_margin=margin,
        location=location,
        tolerance=float(tol),
        note=note,
    )


def merge_results(results) -> list[CheckResult]:
    """Combine same-named CheckResults across traces, keeping each worst case."""
    by_name: dict[str, CheckResult] = {}
    order: list[str] = []
    for r in results:
        if r.name not in by_name:
            by_name[r.name] = r
            order.append(r.name)
        elif r.worst_margin < by_name[r.name].worst_margin:
            prev = by_name[r.name]
            by_name[r.name] = replace(r, note=r.note or prev.note)
    return [by_name[n] for n in order]


def _require_complete(trace: TheoryTrace) -> None:
    for label, a in (("w", trace.W), ("g", trace.G), ("m", trace.M), ("v", trace.V)):
        if not np.all(np.isfinite(a)):
            raise IncompleteTrace(f"trace array {label} has non-finite entries")


def _worst(name, margins, tol, seed=None, first=0, note="") -> CheckResult:
    """The result at the smallest of a (n,) or (n, m) array of margins,
    located at (seed, first + k, i); a NaN is found first, as by np.argmin."""
    margins = np.asarray(margins, dtype=np.float64)
    k = np.unravel_index(int(np.argmin(margins)), margins.shape)
    i = int(k[1]) if margins.ndim == 2 else None
    return _result(name, margins[k], tol, (seed, first + int(k[0]), i), note)


def _at_least(name: str, value: int, low: int) -> None:
    """A checker's count argument below ``low`` is a ValueError naming it."""
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _mean_budget(x):
    """The mean of x over its first axis and the 4-standard-error budget
    around it."""
    mean, sd = _mean_sd(x)
    return mean, 4.0 * (sd / math.sqrt(x.shape[0]))


# ---------------------------------------------------------------------------
# pathwise trace checks


def check_properties(trace: TheoryTrace) -> list[CheckResult]:
    """The four exact per-step guarantees: monotone rates, the v-vs-S floor,
    momentum-square decay, and the w-vs-u function-value bridge."""
    _require_complete(trace)
    seed, cert, h = trace.seed, trace.certificate, trace.h
    out = []

    # monotone adaptive rates: eta_{v_t,i} <= eta_{v_{t-1},i}, rel tol 1e-15
    out.append(_worst("rate-monotone", trace.delta / trace.eta_v[:-1], 1e-15, seed, first=1))

    # second-moment floor: t^gamma * v_{t,i} >= alpha1 * S_{t,i}, rel tol 1e-9
    steps = np.arange(1, trace.T + 1, dtype=np.float64)
    floor = (steps[:, None] ** h.gamma) * trace.V - alpha1(h) * trace.S[1:]
    out.append(_worst("second-moment-floor", floor / trace.S[1:], 1e-9, seed, first=1))

    # momentum-square decay: m_t^2 - m_{t-1}^2 <= -(1-b1) m_{t-1}^2 + (1-b1) g_t^2
    m_prev_sq = np.vstack([np.zeros((1, trace.dim)), trace.M[:-1] ** 2])
    lhs = trace.M**2 - m_prev_sq
    rhs = -(1.0 - h.beta1) * m_prev_sq + (1.0 - h.beta1) * trace.G**2
    scale = 1.0 + m_prev_sq + trace.G**2
    out.append(_worst("momentum-square-decay", (rhs - lhs) / scale, 1e-9, seed, first=1))

    # function-value bridge: with F = f - f*,
    # F(w_t) <= (L_f+1) F(u_t) + (L_f+1) b1^2/(2(1-b1)^2) |eta_{v_{t-1}} o m_{t-1}|^2
    L = cert.L_f
    F_w = trace.f_w - cert.f_star
    F_u = trace.f_u - cert.f_star
    # at iterate index k (i.e. t = k+1): |eta_{v_k} o m_k|^2, with m_0 = 0
    em_sq = np.zeros(trace.T + 1)
    prod = trace.eta_v[1:] * trace.M
    em_sq[1:] = np.einsum("ij,ij->i", prod, prod)
    coef = (L + 1.0) * h.beta1**2 / (2.0 * (1.0 - h.beta1) ** 2)
    bridge = (L + 1.0) * F_u + coef * em_sq - F_w
    scale = 1.0 + np.abs(F_w) + (L + 1.0) * np.abs(F_u)
    out.append(_worst("value-bridge", bridge / scale, 1e-9, seed, first=1))
    return out


def check_taylor_step(trace: TheoryTrace, cert: ProblemCertificate) -> CheckResult:
    """Smoothness step along the auxiliary iterates:
    f(u_{t+1}) - f(u_t) <= grad f(u_t)^T (u_{t+1} - u_t) + L_f/2 |u_{t+1} - u_t|^2."""
    _require_complete(trace)
    du = trace.u[1:] - trace.u[:-1]
    grad_u = grad_batch(trace.problem, trace.u[:-1])
    rhs = (
        np.einsum("ij,ij->i", grad_u, du)
        + 0.5 * cert.L_f * np.einsum("ij,ij->i", du, du)
    )
    lhs = trace.f_u[1:] - trace.f_u[:-1]
    scale = 1.0 + np.abs(trace.f_u[:-1])
    return _worst("taylor-step", (rhs - lhs) / scale, 1e-8, trace.seed, first=1)


def check_telescoping(trace: TheoryTrace) -> CheckResult:
    """Sum of the per-step rate gaps equals eta_{v_0} - eta_{v_T} (rel 1e-12)."""
    _require_complete(trace)
    total = trace.delta.sum(axis=0)
    target = trace.eta_v[0] - trace.eta_v[-1]
    err = np.abs(total - target) / trace.eta_v[0]
    return _worst("gap-telescoping", -err[None], 1e-12, trace.seed, first=trace.T)


def check_momentum_bound(trace: TheoryTrace) -> CheckResult:
    """|m_t|^2 <= (1-beta1) * sum_k beta1^(t-k) |g_k|^2 at every step."""
    _require_complete(trace)
    h = trace.h
    gsq = np.einsum("ij,ij->i", trace.G, trace.G)
    b1, c1, acc, r = h.beta1, 1.0 - h.beta1, 0.0, []
    # Python floats: the same IEEE operations as numpy scalars, at less cost
    for x in gsq.tolist():
        acc = b1 * acc + c1 * x
        r.append(acc)
    r = np.array(r)
    msq = np.einsum("ij,ij->i", trace.M, trace.M)
    return _worst("momentum-energy-bound", (r - msq) / (1.0 + r), 1e-9, trace.seed, first=1)


def check_vital1_pathwise(trace: TheoryTrace, phi: int) -> CheckResult:
    """Normalized energy growth at every prefix T', for phi = 1 or 4:
    sqrt(S_{T'})/(T'+1)^phi <= sqrt(d*v) + sum_{t<=T'} Lambda_{phi,t}."""
    _require_complete(trace)
    steps = np.arange(1, trace.T + 1, dtype=np.float64)
    lam = {1: trace.lambda1, 4: trace.lambda4}[phi]
    lhs = np.sqrt(trace.S_total[1:]) / (steps + 1.0) ** phi
    rhs = math.sqrt(trace.dim * trace.h.v) + np.cumsum(lam)
    margins = (rhs - lhs) / (1.0 + rhs)
    return _worst(f"energy-growth-phi{phi:g}", margins, 1e-9, trace.seed, first=1)


def run_trace_checks(trace: TheoryTrace) -> list[CheckResult]:
    """All pathwise checks for one trace (the per-trace invariant suite)."""
    out = check_properties(trace)
    out.append(check_taylor_step(trace, trace.certificate))
    out.append(check_telescoping(trace))
    out.append(check_momentum_bound(trace))
    out.append(check_vital1_pathwise(trace, 1))
    out.append(check_vital1_pathwise(trace, 4))
    return out


# ---------------------------------------------------------------------------
# sampled-point checks


def sample_points(p: Problem, num_points: int, rng) -> np.ndarray:
    """Evaluation points around the minimizer (or origin), mixed radii."""
    anchor = getattr(p, "w_star", None)
    if anchor is None:
        anchor = np.zeros(p.dim)
    radii = 10.0 ** rng.uniform(-2.0, 0.5, size=num_points)
    z = rng.standard_normal((num_points, p.dim))
    return anchor + radii[:, None] * z


def check_grad_bound(p: Problem, num_points: int, rng) -> CheckResult:
    """Smooth lower-bounded objectives satisfy |grad f|^2 <= 2 L_f (f - f*)."""
    _at_least("num_points", num_points, 1)
    cert = p.certificate
    W = sample_points(p, num_points, rng)
    f = loss_batch(p, W)
    G = grad_batch(p, W)
    gn2 = np.einsum("ij,ij->i", G, G)
    bound = 2.0 * cert.L_f * (f - cert.f_star) * (1.0 + 1e-10)
    return _worst("gradient-energy-bound", (bound - gn2) / (1.0 + gn2), 0.0)


def gradcheck(p: Problem, num_points: int, rng) -> CheckResult:
    """Central finite differences vs the analytic gradient.

    Per point, relative error |fd - grad| / (1 + |grad|) must be <= 1e-6,
    with coordinate step 1e-6 * (1 + |w_i|).

    The points go ``ROW_CHUNK // (2 dim)`` at a time.  A chunk of n points
    makes one (n, 2 dim, dim) stack, whose slab for point w holds w stepped
    up (row 2i) and down (row 2i + 1) coordinate i, and takes its losses in
    one ``loss_batch`` call and its gradients in one ``grad_batch`` call on
    the (n, 1, dim) points.  Every slab is bitwise that point's own call, so
    the result is a point-by-point loop's, and the memory is one chunk's
    stack of ``ROW_CHUNK`` perturbed rows, plus, for the logistic problem,
    their logits on every data row.
    """
    _at_least("num_points", num_points, 1)
    d = p.dim
    per, idx = max(1, ROW_CHUNK // (2 * d)), np.arange(d)
    points, margins = sample_points(p, num_points, rng), []
    for a in range(0, num_points, per):
        w = points[a : a + per]
        hstep = 1e-6 * (1.0 + np.abs(w))
        P = np.repeat(w[:, None, :], 2 * d, axis=1)
        P[:, 2 * idx, idx] += hstep
        P[:, 2 * idx + 1, idx] -= hstep
        f = loss_batch(p, P)
        fd = (f[:, 0::2] - f[:, 1::2]) / (2.0 * hstep)
        G = grad_batch(p, w[:, None])[:, 0]
        for e, g in zip(fd - G, G):
            rel_err = float(np.linalg.norm(e)) / (1.0 + float(np.linalg.norm(g)))
            margins.append(1e-6 - rel_err)
    return _worst("finite-difference-gradcheck", margins, 0.0)


def check_oracle_soundness(p: Problem, num_points: int, K: int, rng) -> list[CheckResult]:
    """Unbiasedness and the certified second-moment bound, by branch sampling.

    At each point: (a) every coordinate of the branch-mean gradient is within
    4 SE of the analytic gradient; (b) the branch mean of |g|^2 is below
    A*(f - f*) + B*|grad f|^2 + C plus 4 SE of itself.

    Memory: one point's (K, d) samples at a time, each dropped before the
    next point's are drawn; ``branch_samples`` adds only the data problems'
    m-row gradient table and ``_mean_sd`` keeps its temporaries to
    ``ROW_CHUNK`` rows, so the peak is about K * d * 8 bytes plus a few (K,)
    series.  Time: the samples' pinned draws, then ``_mean_sd``'s two
    passes over them, each a step-order sum through the carry rule's
    one-operand einsum, bitwise the axis-0 reduce at a fraction of its
    per-row cost.
    """
    _at_least("num_points", num_points, 1)
    _at_least("K", K, 2)
    cert = p.certificate
    unbiased, second = [], []
    for w in sample_points(p, num_points, rng):
        G = branch_samples(p, w, K, rng)
        h_vec = grad(p, w)
        mean, budget = _mean_budget(G)
        budget += 1e-12 * (1.0 + np.abs(h_vec))
        unbiased.append((budget - np.abs(mean - h_vec)) / budget)

        bound = (
            cert.A * (loss(p, w) - cert.f_star)
            + cert.B * float(h_vec @ h_vec)
            + cert.C
        )
        gn2_mean, gn2_budget = _mean_budget(np.einsum("ij,ij->i", G, G))
        second.append((bound + gn2_budget - gn2_mean) / (1.0 + bound))
        del G
    note = f"K={K}, 4-SE budget"
    return [
        _worst("oracle-unbiasedness", unbiased, 0.0, note=note),
        _worst("oracle-second-moment", second, 0.0, note=note),
    ]


def check_exchange(num_instances: int, rng) -> CheckResult:
    """Numeric test of the nested geometric sum exchange.

    For positive psi, 0 < sigma < mu < 1 and n >= 2 (the n = 1 lower bound is
    degenerate and excluded):

        sum_i mu^(n-i) psi_i  <  sum_i mu^(n-i) sum_{j<=i} sigma^(i-j) psi_j
                              <= 1/(1 - sigma/mu) * sum_i mu^(n-i) psi_i.

    The strict gap is accumulated as a sum of positive terms (no cancellation),
    and a 1e-9 relative slack is folded into the upper-bound margin.

    The instances go ``ROW_CHUNK // 8`` at a time, in two phases.  Each
    one's n, mu, sigma and psi are drawn in stream order.  Then the inner
    sums r_i = sigma * r_{i-1} + psi_i, from r_0 = 0, run for the whole
    chunk in lockstep, one row of a zero-padded (max n + 1, chunk) array a
    step: the same two IEEE operations per element as a scalar loop.  Each
    instance's dot products read its contiguous row of the transposed sums,
    so the memory is a few (201, chunk) arrays whatever ``num_instances`` is.
    """
    _at_least("num_instances", num_instances, 1)
    chunk, margins = ROW_CHUNK // 8, []
    for a in range(0, num_instances, chunk):
        draws = []
        for _ in range(min(chunk, num_instances - a)):
            n = int(rng.integers(2, 201))
            mu = float(rng.uniform(0.1, 0.95))
            sigma = mu * float(rng.uniform(0.02, 0.9))
            draws.append((n, mu, sigma, 10.0 ** rng.uniform(-3.0, 3.0, size=n)))
        R = np.zeros((max(n for n, *_ in draws) + 1, len(draws)))
        for j, (n, _, _, psi) in enumerate(draws):
            R[1 : n + 1, j] = psi
        sigmas = np.array([sigma for _, _, sigma, _ in draws])
        for t in range(1, len(R)):
            R[t] += sigmas * R[t - 1]
        R = R[1:].T.copy()
        for (n, mu, sigma, psi), r in zip(draws, R):
            r = r[:n]
            powers = mu ** np.arange(n - 1, -1, -1, dtype=np.float64)
            lower = float(powers @ psi)
            inner = float(powers @ r)
            gap = float(powers[1:] @ (sigma * r[:-1]))  # inner - lower, positively
            upper = lower / (1.0 - sigma / mu)
            margins.append((gap / inner, (upper * (1.0 + 1e-9) - inner) / upper))
    note = "location i: instance index; location coord 0 = strict lower, 1 = upper"
    return _worst("sum-exchange-bounds", margins, 0.0, note=note)


# ---------------------------------------------------------------------------
# branching descent check


def descent_constants(cert: ProblemCertificate, h: HyperParams) -> dict:
    """The coefficient set of the expectation-level one-step contraction."""
    L = cert.L_f
    b1 = h.beta1
    C1 = (cert.A + 2.0 * L * cert.B) * (L + 1.0) / 2.0
    C2 = b1**2 * L**2 / (2.0 * (1.0 - b1) ** 2) + L * (b1 / (1.0 - b1)) ** 2
    kappa = C1 * b1**2 / (2.0 * (1.0 - b1) ** 2)
    return {"C1": C1, "C2": C2, "kappa": kappa, "L": L}


def check_descent_expectation(
    p: Problem, trace: TheoryTrace, checkpoints, K: int, rng
) -> CheckResult:
    """Branch-estimated one-step Lyapunov contraction at the given checkpoints.

    At each checkpoint t the K-branch mean of

        fhat(u_{t+1}) - (1 + C1 * sum_i Delta_{t,i}) * fhat(u_t)

    must not exceed the branch mean of the error budget

        C2 * E2 + kappa * (sum_i Delta_i) * E2
        + beta1/(1-beta1) * sum_i Delta_i |grad_i f(u_t) * m_{t-1,i}|
        + (L_f + 1) * sum_i eta_{v_t,i}^2 g_i^2
        + 1/2 * sum_i Delta_i * (grad_i f(w_t)^2 + g_i^2)

    (E2 = |eta_{v_{t-1}} o m_{t-1}|^2) within 4 standard errors of the
    combined per-branch statistic.  The last budget term is the exact Young
    expansion of the rate-gap cross term; everything else only enlarges the
    budget, so the display is implied by smoothness + the certificate alone.
    Expectations are surrogate branch means; the composite verdict is a >= 95%
    checkpoint pass rate, and K < 1000 downgrades the result to informational.
    The branches are drawn and stepped ``ROW_CHUNK`` rows at a time, and only
    their K per-branch statistics outlive a chunk; eta_{v_{t-1}} is the
    trace's own row, the one its gaps start from, and grad f(w_t) is formed
    once per checkpoint.
    """
    _require_complete(trace)
    _at_least("K", K, 2)
    checkpoints = sorted(int(t) for t in checkpoints)
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    if checkpoints[0] < 1 or checkpoints[-1] > trace.T:
        raise ValueError(f"checkpoints outside [1, {trace.T}]")
    cert, h = trace.certificate, trace.h
    cs = descent_constants(cert, h)
    L, C1, C2, kappa = cs["L"], cs["C1"], cs["C2"], cs["kappa"]

    margins, X = [], np.empty(K)
    for t in checkpoints:
        s = trace.state_before(t)
        eta_v_prev = trace.eta_v[t - 1]
        E2 = float(np.sum((eta_v_prev * s.m) ** 2))
        fhat_t = float(trace.fhat[t - 1])
        # X = C2 E2 + Delta @ c + (Delta/2 + (L_f+1) eta_v^2) . g^2 - (fhat(u_{t+1}) - fhat(u_t)):
        # the display's terms regrouped, every term linear in Delta gathered into c
        c = (
            (kappa * E2 + C1 * fhat_t)
            + (h.beta1 / (1.0 - h.beta1)) * np.abs(grad(p, trace.u[t - 1]) * s.m)
            + 0.5 * grad(p, s.w) ** 2
        )
        for a in range(0, K, ROW_CHUNK):
            G, W, eta_v = _branch_step(p, s, h, min(ROW_CHUNK, K - a), rng)
            delta = eta_v_prev - eta_v
            g2_terms = np.einsum("ki,ki->k", 0.5 * delta + (L + 1.0) * eta_v**2, G**2)
            u_next = aux_iterate(W, s.w, h)
            fhat_next = cert.C * eta_v.sum(axis=1) + loss_batch(p, u_next) - cert.f_star
            X[a : a + len(delta)] = C2 * E2 + delta @ c + g2_terms - (fhat_next - fhat_t)
        mean, budget = _mean_budget(X)
        margins.append((mean + budget) / (1.0 + abs(fhat_t)))

    margins = np.asarray(margins)
    k = int(np.argmin(margins))
    worst, worst_t = float(margins[k]), checkpoints[k]
    n_pass = int(np.count_nonzero(margins >= 0))
    rate = n_pass / len(checkpoints)
    note = (
        f"surrogate branch means, K={K}; {n_pass}/{len(checkpoints)} checkpoints "
        f"within 4 SE; worst checkpoint t={worst_t} margin {worst:.3e}"
    )
    tol = 0.0
    if K < 1000:
        tol = math.inf
        note += "; low-confidence (K < 1000), informational only"
    return _result("branching-descent", rate - 0.95, tol, (trace.seed, worst_t, None), note=note)
