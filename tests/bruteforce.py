"""Independent brute-force evaluator of rates, correlations and the rate
bound, used as a test oracle.

Deliberately self-contained: it rebuilds array responses and channel
matrices from raw angles and gains and evaluates every SINR term by
explicit matrix products, sharing no code with the package under test.
Its steering vectors are the uncentred ``exp(-j*pi*k*sin(angle))``, with
complex gains.
"""

import numpy as np


def array_response(num_elements, angle_rad):
    k = np.arange(num_elements)
    return np.exp(-1j * np.pi * k * np.sin(angle_rad)) / np.sqrt(num_elements)


def centred_response(num_elements, normalized):
    """``array_response`` at normalized angle x times exp(j*pi*(T-1)*x/2): the
    centred steering vector, whose inner products are real."""
    phase = np.exp(0.5j * np.pi * (num_elements - 1) * normalized)
    return array_response(num_elements, np.arcsin(normalized)) * phase


def channel_matrix(bs_antennas, mu_antennas, aod_rad, aoa_rad, beta):
    """The T_MU x T_BS single-path channel sqrt(T_BS*T_MU) * beta * a_mu a_bs^H."""
    a_mu = array_response(mu_antennas, aoa_rad)
    a_bs = array_response(bs_antennas, aod_rad)
    return np.sqrt(bs_antennas * mu_antennas) * beta * np.outer(a_mu, a_bs.conj())


def effective_row(bs_antennas, mu_antennas, aod_rad, aoa_rad, beta, uid, f_rf):
    """User ``uid``'s received row w^H H F_rf, with the matched combiner w."""
    channel = channel_matrix(bs_antennas, mu_antennas, aod_rad[uid], aoa_rad[uid], beta[uid])
    return array_response(mu_antennas, aoa_rad[uid]).conj() @ channel @ f_rf


def rate_table(bs_antennas, mu_antennas, aod_rad, aoa_rad, beta, clusters, powers, f_rf, f_bb):
    """Per-user achievable rates evaluated directly from the signal model.

    clusters: per-cluster user id lists in SIC order (index 0 decodes last
    and carries the least power). powers: user id -> noise-normalized
    transmit power. f_rf, f_bb: the precoding matrices actually applied.
    Returns {uid: rate}.
    """
    rates = {}
    for n, cluster in enumerate(clusters):
        for m, uid in enumerate(cluster):
            received_row = effective_row(
                bs_antennas, mu_antennas, aod_rad, aoa_rad, beta, uid, f_rf
            )
            own_power = np.abs(received_row @ f_bb[:, n]) ** 2
            desired = powers[uid] * own_power
            intra = sum(powers[cluster[k]] for k in range(m)) * own_power
            inter = 0.0
            for other_idx, other_cluster in enumerate(clusters):
                if other_idx == n:
                    continue
                cross_power = np.abs(received_row @ f_bb[:, other_idx]) ** 2
                inter += sum(powers[q] for q in other_cluster) * cross_power
            rates[uid] = float(np.log1p(desired / (intra + inter + 1.0)) / np.log(2.0))
    return rates


def bound_table(
    bs_antennas, mu_antennas, aod_rad, aoa_rad, beta, clusters, powers, cluster_power, f_rf, f_bb
):
    """Per-user correlation rho and the paper's closed-form rate bound, from
    the same rebuilt channels and precoders as ``rate_table``.

    cluster_power: the noise-normalized power of one cluster. Returns
    {uid: (rho, bound)}; a cluster's first user keeps rho = 1 and, as its
    bound, its exact rate.
    """
    rates = rate_table(
        bs_antennas, mu_antennas, aod_rad, aoa_rad, beta, clusters, powers, f_rf, f_bb
    )
    gram_eigen = np.linalg.eigvalsh(f_rf.conj().T @ f_rf)
    kappa = gram_eigen[-1] / gram_eigen[0]
    eta = (kappa + 1.0 / kappa + 2.0) / 4.0
    firsts = [array_response(bs_antennas, aod_rad[cluster[0]]) for cluster in clusters]

    def kernel_sum(uid):
        a = array_response(bs_antennas, aod_rad[uid])
        return sum(abs(np.vdot(first, a)) ** 2 for first in firsts)

    table = {}
    for n, cluster in enumerate(clusters):
        table[cluster[0]] = (1.0, rates[cluster[0]])
        h1 = effective_row(bs_antennas, mu_antennas, aod_rad, aoa_rad, beta, cluster[0], f_rf)
        others = np.delete(f_bb, n, axis=1)
        lam = np.linalg.svd(others, compute_uv=False)[0] ** 2 if others.size else 0.0
        for m, uid in enumerate(cluster[1:], start=1):
            h = effective_row(bs_antennas, mu_antennas, aod_rad, aoa_rad, beta, uid, f_rf)
            scale = np.linalg.norm(h) * np.linalg.norm(h1)
            rho = min(abs(np.vdot(h1, h)) / scale, 1.0)
            # 1 - rho^2 by Lagrange's identity, accurate where rho is near 1
            across = sum(
                abs(h[i] * h1[j] - h[j] * h1[i]) ** 2
                for i in range(len(h))
                for j in range(i + 1, len(h))
            ) / scale**2
            received = bs_antennas * mu_antennas * abs(beta[uid]) ** 2
            numerator = powers[uid] * rho**2 * received
            zeta_intra = sum(powers[cluster[k]] for k in range(m)) * rho**2 * received
            ks_first = kernel_sum(cluster[0])
            zeta_inter = cluster_power * across * received * lam * eta * ks_first
            zeta_noise = eta * ks_first / kernel_sum(uid)
            sinr = numerator / (zeta_intra + zeta_inter + zeta_noise)
            table[uid] = (rho, float(np.log1p(sinr) / np.log(2.0)))
    return table
