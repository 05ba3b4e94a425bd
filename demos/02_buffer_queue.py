"""The transmit buffer as a birth-death chain.

Each slot brings a packet with probability q and, while the buffer is
nonempty, serves the head packet successfully with probability f. The
state (packets buffered) then walks on {0..K}. This script writes out
the transition matrix of a small buffer from those rules, prints the
closed-form stationary law greenlink gives, and shows how the
full-buffer probability reacts to the load ratio rho.
"""

import numpy as np

from greenlink import (
    QueueParams,
    full_buffer_prob,
    load_rho,
    packet_loss,
    stationary_distribution,
)


def show_matrix(q, f, K):
    up = q * (1 - f)  # arrival admitted, head packet not delivered
    down = (1 - q) * f  # no arrival, head packet delivered
    stay = (1 - q) * (1 - f) + q * f
    P = np.diag([1 - q + q * f] + [stay] * (K - 1) + [(1 - q) * (1 - f) + q])
    P += np.diag([up] * K, 1) + np.diag([down] * K, -1)
    print(f"transition matrix, q={q}, f={f}, K={K} (rows: from-state):")
    for row in P:
        print("   " + "  ".join(f"{v:6.3f}" for v in row))
    pi = stationary_distribution(QueueParams(q, K), f)
    print(f"closed-form pi = {np.round(pi, 4)}, |pi P - pi| = {np.abs(pi @ P - pi).max():.1e}")
    print()


def main():
    show_matrix(q=0.5, f=0.8, K=3)

    qp = QueueParams(arrival_prob_q=0.5, buffer_size_K=10)
    for f in (0.85, 0.6, 0.5, 0.4, 0.25):
        pi = stationary_distribution(qp, f)
        rho = load_rho(qp, f)
        phi = packet_loss(qp, f)
        head = " ".join(f"{p:.3f}" for p in pi[:4])
        tail = " ".join(f"{p:.3f}" for p in pi[-2:])
        print(f"f={f:4.2f}  rho={rho:6.3f}  pi=[{head} ... {tail}]  "
              f"full={full_buffer_prob(qp, f):.4f}  loss={phi:.4f}")

    print()
    print("rho < 1: mass piles at empty; rho > 1: mass piles at full;")
    print("rho = 1 is the knife edge where every state is equally likely:")
    print("  pi =", np.round(stationary_distribution(qp, 0.5), 4), " (uniform 1/11)")


if __name__ == "__main__":
    main()
