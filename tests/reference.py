"""Scalar reference formulas for the per-step quantities of the analysis.

``build_trace`` computes every series vectorised over the whole run; these
plain one-step formulas are what the tests compare it against.  They take
well-formed inputs and do no validation.
"""

import math

import numpy as np


def u_aux(w_t, w_prev, beta1):
    """Momentum-corrected auxiliary iterate (w_t - beta1*w_prev)/(1 - beta1)."""
    return (np.asarray(w_t) - beta1 * np.asarray(w_prev)) / (1.0 - beta1)


def delta_gap(eta_v_prev, eta_v_cur):
    """Componentwise rate gap Delta_t = eta_{v_{t-1}} - eta_{v_t}."""
    return np.asarray(eta_v_prev) - np.asarray(eta_v_cur)


def accumulate_S(S_prev, g):
    """S_t = S_{t-1} + g*g (componentwise cumulative gradient energy)."""
    g = np.asarray(g)
    return np.asarray(S_prev) + g * g


def zeta_sum(eta_v_prev, grad_w):
    """sum_i eta_{v_{t-1},i} * (grad_i f(w_t))^2."""
    gw = np.asarray(grad_w)
    return float(np.sum(np.asarray(eta_v_prev) * gw * gw))


def lyapunov_fhat(f_u, f_star, eta_v_prev, C):
    """fhat(u_t) = f(u_t) - f* + C * sum_i eta_{v_{t-1},i}."""
    return float(f_u) - float(f_star) + float(C) * float(np.sum(eta_v_prev))


def lambda_phi(g, S_prev_total, t, phi):
    """Lambda_{phi,t} = |g_t|^2 / ((t+1)^phi * sqrt(S_{t-1}))."""
    g = np.asarray(g)
    return float(g @ g) / ((t + 1.0) ** phi * math.sqrt(S_prev_total))


def m_term1(eta_v_prev, grad_w, g):
    """M_{t,1} = sum_i eta_{v_{t-1},i} * grad_i f(w_t) * (grad_i f(w_t) - g_{t,i})."""
    gw = np.asarray(grad_w)
    return float(np.sum(np.asarray(eta_v_prev) * gw * (gw - np.asarray(g))))


def sigmoid_branchwise(x):
    """1/(1 + exp(-x)) where x >= 0 and exp(x)/(1 + exp(x)) elsewhere, by masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# The logistic kernels on the unsigned rows and the labels, as written before
# ``Logistic.signed_rows`` folded the labels in; the folded ones must match
# them bitwise (y = +/-1, so every sign flip is exact).


def logistic_loss_batch(p, W):
    Z = W @ p.rows.T
    data = np.mean(np.logaddexp(0.0, -p.labels * Z), axis=1)
    return data + 0.5 * p.reg * np.einsum("ij,ij->i", W, W)


def logistic_grad_batch(p, W):
    Z = W @ p.rows.T
    P = sigmoid_branchwise(-p.labels * Z)
    return -(P * p.labels) @ p.rows / p.rows.shape[0] + p.reg * W


def logistic_oracle_rows(p, W, draws):
    a = p.rows[draws]
    z = np.einsum("kd,kd->k", a, W)
    y = p.labels[draws]
    return -(y * sigmoid_branchwise(-y * z))[:, None] * a + p.reg * W


def branch_samples_whole(p, w, K, rng):
    """``branch_samples`` as one block: all K draws at once through one
    ``oracle_rows`` call on the whole (K, dim) stack, which the chunked
    version must match bitwise."""
    from adamabc.problems import NoisyQuadratic, oracle_draws, oracle_rows

    w = np.asarray(w, dtype=np.float64)
    draws = oracle_draws(p, K, rng)
    if isinstance(p, NoisyQuadratic) and draws is not None:
        return oracle_rows(p, w[None], draws)
    return oracle_rows(p, np.tile(w, (K, 1)), draws)


def gradcheck_per_point(p, num_points, rng):
    """``verify.gradcheck`` one point at a time: a (2 dim, dim) perturbation
    slab through ``loss_batch`` and one ``grad`` call per point, as it was
    written before its points were stacked.  The chunked check must give the
    same result."""
    from adamabc.problems import grad, loss_batch
    from adamabc.verify import _worst, sample_points

    margins = []
    for w in sample_points(p, num_points, rng):
        hstep = 1e-6 * (1.0 + np.abs(w))
        P = np.repeat(w[None, :], 2 * p.dim, axis=0)
        idx = np.arange(p.dim)
        P[2 * idx, idx] += hstep
        P[2 * idx + 1, idx] -= hstep
        f = loss_batch(p, P)
        fd = (f[0::2] - f[1::2]) / (2.0 * hstep)
        g = grad(p, w)
        rel_err = float(np.linalg.norm(fd - g)) / (1.0 + float(np.linalg.norm(g)))
        margins.append(1e-6 - rel_err)
    return _worst("finite-difference-gradcheck", margins, 0.0)


def exchange_per_instance(num_instances, rng):
    """``verify.check_exchange`` one instance at a time, its recurrence
    stepped in Python floats, as it was written before the instances ran in
    lockstep.  The lockstep check must give the same result."""
    from adamabc.verify import _worst

    margins = []
    for _ in range(num_instances):
        n = int(rng.integers(2, 201))
        mu = float(rng.uniform(0.1, 0.95))
        sigma = mu * float(rng.uniform(0.02, 0.9))
        psi = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        acc, r = 0.0, []
        for x in psi.tolist():
            acc = sigma * acc + x
            r.append(acc)
        r = np.array(r)
        powers = mu ** np.arange(n - 1, -1, -1, dtype=np.float64)
        lower = float(powers @ psi)
        inner = float(powers @ r)
        gap = float(powers[1:] @ (sigma * r[:-1]))
        upper = lower / (1.0 - sigma / mu)
        margins.append((gap / inner, (upper * (1.0 + 1e-9) - inner) / upper))
    note = "location i: instance index; location coord 0 = strict lower, 1 = upper"
    return _worst("sum-exchange-bounds", margins, 0.0, note=note)


def adam_rows_unstacked(w, m, v, g, sched, consts, out, tmp):
    """The update as seven ufuncs on separate m and v, each product into its
    own output: ``sched = (b2, 1 - b2, eta)``, ``consts = (beta1, 1 - beta1,
    mu)``, ``out = (w', m', v', eta_v')``.  The stacked ``adam_rows`` must
    match it bitwise."""
    b2, c2, eta = sched
    b1, c1, mu = consts
    w_out, m_out, v_out, e_out = out
    np.multiply(g, g, tmp)
    np.multiply(c2, tmp, tmp)
    np.multiply(b2, v, v_out)
    np.add(v_out, tmp, v_out)
    np.multiply(c1, g, tmp)
    np.multiply(b1, m, m_out)
    np.add(m_out, tmp, m_out)
    np.sqrt(v_out, e_out)
    np.add(e_out, mu, e_out)
    np.true_divide(eta, e_out, e_out)
    np.multiply(e_out, m_out, tmp)
    np.subtract(w, tmp, w_out)


def sweep_per_step(p, h, T, seeds, checkpoints, rule="adam", collect_dsum=False):
    """The seed sweep one step at a time: every running statistic is updated
    in place after each step and copied out at the checkpoints.  The blocked
    sweep of ``experiments.run_sweep`` must match it bitwise."""
    from adamabc.core import alpha1, beta2_at, eta_at
    from adamabc.optimizer import prefetch_draws
    from adamabc.problems import grad_batch, oracle_rows, rng_stream

    S, d = len(seeds), p.dim
    cps = list(checkpoints)
    rngs = [rng_stream("trajectory", s, "oracle") for s in seeds]
    W, M, V = np.ones((S, d)), np.zeros((S, d)), np.full((S, d), h.v)
    run_gsq, eta_gsq, sup_gsq = np.zeros(S), np.zeros(S), np.zeros(S)
    Svec = np.full((S, d), h.v)
    sup_sigv = np.full(S, d * h.v)
    eta_prev = np.full((S, d), h.v / alpha1(h))
    dsum = np.empty((S, T))
    names = ("avg_gsq", "last_grad", "eta_gsq_sum", "S_total", "sigma_v", "sup_sigma_v", "sup_grad")
    out = {name: np.empty((S, len(cps))) for name in names}
    block, c = prefetch_draws(p, T, rngs), 0  # all T steps' draws at once
    for t in range(1, T + 1):
        grad_now = grad_batch(p, W)
        gn2 = np.einsum("sd,sd->s", grad_now, grad_now)
        eta_t = eta_at(t, h)
        run_gsq += gn2
        eta_gsq += eta_t * gn2
        np.maximum(sup_gsq, gn2, out=sup_gsq)
        G = oracle_rows(p, W, None if block is None else block[t - 1])
        if rule == "adam":
            b2 = beta2_at(t, h)
            V = b2 * V + (1.0 - b2) * (G * G)
            M = h.beta1 * M + (1.0 - h.beta1) * G
            eta_v = eta_t / (np.sqrt(V) + h.mu)
            W = W - eta_v * M
            dsum[:, t - 1] = (eta_prev - eta_v).sum(axis=1)
            eta_prev = eta_v
        else:
            W = W - t**-0.5 * G
        Svec += G * G
        sigv = V.sum(axis=1)
        np.maximum(sup_sigv, sigv, out=sup_sigv)
        if c < len(cps) and t == cps[c]:
            out["avg_gsq"][:, c] = run_gsq / t
            out["last_grad"][:, c] = np.sqrt(gn2)
            out["eta_gsq_sum"][:, c] = eta_gsq
            out["S_total"][:, c] = Svec.sum(axis=1)
            out["sigma_v"][:, c] = sigv
            out["sup_sigma_v"][:, c] = sup_sigv
            out["sup_grad"][:, c] = np.sqrt(sup_gsq)
            c += 1
    out["final_W"] = W
    if collect_dsum:
        out["dsum"] = dsum
    return out


def descent_whole(p, trace, checkpoints, K, rng):
    """``check_descent_expectation`` with all K branches drawn at once and
    the budget's nine terms summed as displayed, as it was written before the
    branches were streamed.  Returns the CheckResult and each checkpoint's
    (K,) per-branch statistic X."""
    from adamabc.instrumentation import _branch_step, _mean_sd, aux_iterate, eta_v_at_state
    from adamabc.problems import grad, loss_batch
    from adamabc.verify import _result, descent_constants

    cert, h = trace.certificate, trace.h
    cs = descent_constants(cert, h)
    L, C1, C2, kappa = cs["L"], cs["C1"], cs["C2"], cs["kappa"]
    checkpoints = sorted(int(t) for t in checkpoints)
    margins, Xs = [], []
    for t in checkpoints:
        s = trace.state_before(t)
        G, W, eta_v = _branch_step(p, s, h, K, rng)
        eta_v_prev = eta_v_at_state(s, h)
        delta = eta_v_prev - eta_v
        E2 = float(np.sum((eta_v_prev * s.m) ** 2))
        grad_u = grad(p, trace.u[t - 1])
        delta_row = delta.sum(axis=1)
        fhat_next = (
            loss_batch(p, aux_iterate(W, s.w, h))
            - cert.f_star
            + cert.C * eta_v.sum(axis=1)
        )
        fhat_t = float(trace.fhat[t - 1])
        young = 0.5 * np.einsum("ki,i->k", delta, grad(p, s.w) ** 2) + 0.5 * np.einsum(
            "ki,ki->k", delta, G**2
        )
        X = (
            C2 * E2
            + kappa * delta_row * E2
            + (h.beta1 / (1.0 - h.beta1)) * (delta @ np.abs(grad_u * s.m))
            + (L + 1.0) * np.einsum("ki,ki->k", eta_v**2, G**2)
            + young
            - fhat_next
            + (1.0 + C1 * delta_row) * fhat_t
        )
        mean, sd = _mean_sd(X)
        margins.append((mean + 4.0 * (sd / math.sqrt(K))) / (1.0 + abs(fhat_t)))
        Xs.append(X)
    margins = np.asarray(margins)
    k = int(np.argmin(margins))
    worst, worst_t = float(margins[k]), checkpoints[k]
    n_pass = int(np.count_nonzero(margins >= 0))
    note = (
        f"surrogate branch means, K={K}; {n_pass}/{len(checkpoints)} checkpoints "
        f"within 4 SE; worst checkpoint t={worst_t} margin {worst:.3e}"
    )
    tol = 0.0
    if K < 1000:
        tol = math.inf
        note += "; low-confidence (K < 1000), informational only"
    rate = n_pass / len(checkpoints)
    return _result("branching-descent", rate - 0.95, tol, (trace.seed, worst_t, None), note), Xs


def geometric_tail_whole(rows, q):
    """The tail sums ``instrumentation._tail_rows`` yields, as they were
    computed before its rows were streamed: the direct path pads an
    (S, T + tau) copy, the FFT path transforms all S rows in one call."""
    from adamabc.instrumentation import TAIL_CUT

    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    S, T = rows.shape
    if q == 0.0:
        return rows.copy()
    tau = min(int(math.floor(math.log(TAIL_CUT) / math.log(q))), T - 1)
    kernel = q ** np.arange(tau + 1, dtype=np.float64)
    if T * (tau + 1) <= 1 << 22:
        padded = np.concatenate([rows, np.zeros((S, tau))], axis=1)
        out = np.empty((S, T))
        for s in range(S):
            out[s] = np.correlate(padded[s], kernel, mode="valid")
        return out
    nfft = 1 << (T + tau + 1).bit_length()
    Kf = np.fft.rfft(kernel[::-1], nfft)
    Rf = np.fft.rfft(rows, nfft, axis=1)
    conv = np.fft.irfft(Rf * Kf, nfft, axis=1)
    return np.maximum(conv[:, tau : tau + T], 0.0)


def log_pi_whole(dsum, h, cert):
    """The dense (S, T) ln PiHat series, as ``log_pi_series`` computed it
    before it kept only the checkpoint columns."""
    from adamabc.instrumentation import _factor_weight

    q = math.sqrt(h.beta1)
    dbar = geometric_tail_whole(dsum, q)
    return -np.cumsum(np.log1p(_factor_weight(cert.L_f, cert.A, cert.B, q) * dbar), axis=1)
