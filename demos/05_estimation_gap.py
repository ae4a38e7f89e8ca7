# The collective-vs-sequential estimation gap, exactly and by simulation.
#
# For N spin-1/2 copies the optimal collective fidelity is (N+1)/(N+2) and
# sequential protocols lose 1/(N(N+1)) for N >= 2; a single copy has no gap
# (the closed form does not apply at N = 1 and the table says so).  The
# Monte-Carlo check simulates the simplest single-copy protocol and lands on
# F(1) = 2/3.
from infogeo import gap_report, gap_table, mc_single_copy_fidelity

print(f"{'N':>4} {'spin':>6} {'F_col':>10} {'F_seq':>10} {'gap':>10}   note")
for row in gap_table(8):
    note = "special-cased" if row.special_cased else ""
    print(f"{row.n_copies:>4} {str(row.spin):>6} {str(row.f_col):>10} "
          f"{str(row.f_seq):>10} {str(row.gap):>10}   {note}")

big = gap_report(10**6)
print(f"\ngap at N = 10^6: {float(big.gap):.3e} (vanishes in the many-copy limit)")

print("\nsingle-copy Monte Carlo (measure along z, guess the outcome state):")
for seed in (1, 2, 3):
    est = mc_single_copy_fidelity(1_000_000, seed)
    print(f"  seed {seed}: {est.mean:.6f} +- {est.std_error:.6f}   (2/3 = 0.666667)")

fixed = mc_single_copy_fidelity(1_000_000, 1, guess="fixed")
print(f"  guessing a fixed state instead: {fixed.mean:.6f} +- {fixed.std_error:.6f} "
      "(1/2, the no-information floor)")
