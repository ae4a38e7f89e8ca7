# Quantum state geometry: Veronese embedding, holonomy, and the cubic term
# on explicit charts, for both quantum divergences.
#
# None of the chart tensors below is asserted against a theoretical value:
# they are reported measurements.  Two observations worth keeping in view:
#   * relative entropy between uniformly smoothed pure states is a function
#     of fidelity alone (smoothing preserves the spectrum), so on the
#     Veronese chart its asymmetry vanishes identically.  Its cubic tensor
#     T_theta,phi,phi = k sin(theta) cos(theta), with
#     k = (1 - eps) ln((3 - 2 eps) / eps), does not, but it is a chart
#     term, not a cubic effect: for every symmetric divergence
#     T = (3/2) Sym dg, and here g = k diag(1, sin^2 theta), so
#     d_theta g_phi,phi = 2k sin(theta) cos(theta).  The chart-invariant part
#     T - (3/2) Sym dg is zero to extraction accuracy (2.5e-6 against
#     |T| = 3.64 at (1, 0.3)).  T is zero only on the equator theta = pi/2,
#     which is where it is evaluated below, and
#   * on mixed-state charts (Bloch ball interior, diagonal qutrit simplex)
#     the cubic term is plainly non-zero for both divergences, the symmetric
#     Jensen-Shannon one included: symmetry makes the asymmetry
#     D(p || q) - D(q || p) vanish, not the cubic tensor T.
import math

import numpy as np

from infogeo import (
    PureState,
    bargmann_phase,
    extract_cubic,
    fubini_study_distance,
    make_chart_divergence,
    veronese_embed,
)

ket0 = PureState([1, 0])
plus = PureState([1, 1])
plus_i = PureState([1, 1j])

print("Veronese embedding (qubit ray -> symmetric two-copy ray):")
for state in (ket0, plus):
    v = veronese_embed(state)
    print(f"  {np.round(state.amplitudes, 4)} -> {np.round(v.amplitudes, 4)}")
p, q = plus, plus_i
print(f"  overlap identity: |<v(p)|v(q)>| = {abs(veronese_embed(p).overlap(veronese_embed(q))):.6f}"
      f" = |<p|q>|^2 = {abs(p.overlap(q))**2:.6f}")

print()
print("holonomy of the octant loop |0> -> |x+> -> |y+>:")
phase = bargmann_phase([ket0, plus, plus_i])
print(f"  loop phase   {phase:+.6f}  (-pi/4 = {-math.pi/4:+.6f}; "
      "half the enclosed solid angle)")
print(f"  reversed     {bargmann_phase([plus_i, plus, ket0]):+.6f}")
print(f"  geodesic legs are equal: d({0}, x+) = {fubini_study_distance(ket0, plus):.4f} rad")

print()
print("largest cubic-tensor component on each chart (reported, not asserted):")
for spec, at in [
    ("qre:bloch", [0.1, 0.2, 0.3]),
    ("qjsd:bloch", [0.1, 0.2, 0.3]),
    ("qre:diag-qutrit", [0.3, 0.4]),
    ("qjsd:diag-qutrit", [0.3, 0.4]),
    ("qre:veronese", [math.pi / 2, 0.0]),
    ("qjsd:veronese", [math.pi / 2, 0.0]),
]:
    div = make_chart_divergence(spec, eps=1e-3)
    t = extract_cubic(div, at, h=5e-2)
    shown = str([round(c, 4) for c in at])
    print(f"  {spec:<18} at {shown:<18} max|T| = {np.max(np.abs(t.components)):.4f}")
print("  (the veronese-chart relative entropy is symmetric: uniform smoothing")
print("   of rank-one projectors leaves a pure function of fidelity behind)")
