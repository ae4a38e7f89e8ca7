# Extracting the quadratic (metric) and cubic tensors by finite differences.
#
# D(p || p+u) = 1/2 g_ij u_i u_j + 1/6 T_ijk u_i u_j u_k + ...
# The metric matches the Fisher information in any chart.  The cubic
# coefficient is chart dependent: only in natural coordinates does it equal
# the third score moment (the fully symmetric cubic tensor of information
# geometry).  The convergence ladder shows the expected O(h^2) error decay.
import numpy as np

from infogeo import (
    Bernoulli,
    ExponentialScale,
    convergence_report,
    extract_cubic,
    extract_metric,
    natural_view,
    score_moment_tensor,
)

fam = ExponentialScale()
g = extract_metric(fam, [1.0], richardson=True)
t = extract_cubic(fam, [1.0], richardson=True)
print("exponential family at rate 1, default chart:")
print(f"  metric      {g.components[0, 0]: .8f}   (Fisher information 1/theta^2 = 1)")
print(f"  cubic       {t.components[0, 0, 0]: .8f}   (closed form -2/theta^3 = -2)")

bern = Bernoulli()
view = natural_view(bern)
for p in (0.2, 0.3, 0.42):
    eta = bern.to_natural([p])
    t_nat = extract_cubic(view, eta, h=5e-2, richardson=True).components[0, 0, 0]
    oracle = score_moment_tensor(bern, [p])[0, 0, 0]
    t_mean = extract_cubic(bern, [p], h=0.08 * min(p, 1 - p), richardson=True).components[0, 0, 0]
    print(f"bernoulli p={p}: natural-chart cubic {t_nat:+.6f}  score moment {oracle:+.6f}  "
          f"mean-chart cubic {t_mean:+.6f}")
print("  (the mean-chart value is -2x the transported score moment t: the")
print("   non-affine chart adds a connection term -3t, so T = t - 3t)")

print()
print("convergence ladder, exponential at rate 1:")
rep = convergence_report(ExponentialScale(), [1.0], [0.2, 0.1, 0.05, 0.025])
print(f"  {'h':>7} {'metric err':>12} {'cubic err':>12}")
for rung in rep.rungs:
    print(f"  {rung.h:7.3f} {rung.metric_error:12.3e} {rung.cubic_error:12.3e}")
print(f"  fitted decay orders: metric {rep.metric_order:.2f}, cubic {rep.cubic_order:.2f}")
