"""Independent brute-force rate evaluator used as a test oracle.

Deliberately self-contained: it rebuilds array responses and channel
matrices from raw angles and gains and evaluates every SINR term by
explicit matrix products, sharing no code with the package under test.
"""

import numpy as np


def array_response(num_elements, angle_rad):
    k = np.arange(num_elements)
    return np.exp(-1j * np.pi * k * np.sin(angle_rad)) / np.sqrt(num_elements)


def channel_matrix(bs_antennas, mu_antennas, aod_rad, aoa_rad, beta):
    """The T_MU x T_BS single-path channel sqrt(T_BS*T_MU) * beta * a_mu a_bs^H."""
    a_mu = array_response(mu_antennas, aoa_rad)
    a_bs = array_response(bs_antennas, aod_rad)
    return np.sqrt(bs_antennas * mu_antennas) * beta * np.outer(a_mu, a_bs.conj())


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
            channel = channel_matrix(
                bs_antennas, mu_antennas, aod_rad[uid], aoa_rad[uid], beta[uid]
            )
            combiner = array_response(mu_antennas, aoa_rad[uid])
            received_row = combiner.conj() @ channel @ f_rf
            own_power = np.abs(received_row @ f_bb[:, n]) ** 2
            desired = powers[uid] * own_power
            intra = sum(powers[cluster[k]] for k in range(m)) * own_power
            inter = 0.0
            for other_idx, other_cluster in enumerate(clusters):
                if other_idx == n:
                    continue
                cross_power = np.abs(received_row @ f_bb[:, other_idx]) ** 2
                inter += sum(powers[q] for q in other_cluster) * cross_power
            rates[uid] = float(np.log2(1.0 + desired / (intra + inter + 1.0)))
    return rates
