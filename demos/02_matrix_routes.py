"""The four Hessenberg routes to one polynomial.

An order-n matrix from any of the four families yields the (n+1)-th
sequence term: determinants of W and M, permanents of H and K.  W and H
carry complex entries, yet the results are real.

Run: python3 demos/02_matrix_routes.py
"""

from fibhess import (
    build_h,
    build_k,
    build_m,
    build_w,
    det_hessenberg,
    det_oracle,
    per_hessenberg,
    per_oracle,
)

p, order = 3, 5

for name, builder, evaluate in (
    ("det W", build_w, det_hessenberg),
    ("det M", build_m, det_hessenberg),
    ("per H", build_h, per_hessenberg),
    ("per K", build_k, per_hessenberg),
):
    a = builder(p, order)
    print(f"{name}, p={p}, order={order}:")
    print(a)
    print("  ->", evaluate(a))
    print()

# Brute-force oracles (one first-row Laplace expansion, signed for det,
# sign-free for per) agree at small orders, ignoring the band entirely.
w = build_w(p, order)
h = build_h(p, order)
print("det oracle on W:", det_oracle(w))
print("per oracle on H:", per_oracle(h))
