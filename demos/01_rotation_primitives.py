"""Tour of the SO(3) primitives: hat/vee, exponential, logarithm, distance.

Run:  python demos/01_rotation_primitives.py
"""

import numpy as np

from gyrotrack import (expm, geodesic_distance, hat, logm, rotation_angle,
                       vee)

np.set_printoptions(precision=6, suppress=True)

# The hat map turns a vector into the matrix that implements its cross
# product; vee undoes it exactly.
v = np.array([0.3, -1.2, 0.8])
w = np.array([1.0, 0.5, -0.25])
print("hat(v) @ w           :", hat(v) @ w)
print("np.cross(v, w)       :", np.cross(v, w))
print("vee(hat(v)) == v     :", np.array_equal(vee(hat(v)), v))

# Rodrigues exponential: a rotation by |v| radians about v/|v|.
quarter_turn = expm([0.0, 0.0, np.pi / 2])
print("\nexpm([0, 0, pi/2]) =\n", quarter_turn)

# The logarithm recovers the rotation vector, including the angle-pi case
# where the skew part vanishes and the axis must come from the symmetric
# part of the matrix.
print("\nlogm of the quarter turn:", logm(quarter_turn))
print("logm of a half turn about x:", logm(np.diag([1.0, -1.0, -1.0])))

# Round trips hold to machine precision across the whole ball of radius pi.
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(1000):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    vec = rng.uniform(0.0, np.pi - 1e-6) * axis
    worst = max(worst, np.abs(logm(expm(vec)) - vec).max())
print(f"\nworst log(exp(v)) error over 1000 draws: {worst:.2e}")

# The geodesic distance between two attitudes is the angle of their
# relative rotation R1^T R2: a further turn of 0.25 rad about any axis
# moves R by exactly 0.25 rad.
r = expm([0.4, 0.2, -0.7])
turn = expm(0.25 * np.array([0.6, 0.0, 0.8]))
print(f"distance from R to R expm(0.25 n): "
      f"{geodesic_distance(r, r @ turn):.6f} rad")

# rotation_angle(R) equals the norm of the logarithm.
print(f"\nrotation angle of expm(0.4, 0.2, -0.7): "
      f"{rotation_angle(r):.6f} rad (|v| = {np.linalg.norm([0.4, 0.2, -0.7]):.6f})")
